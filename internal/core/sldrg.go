package core

import (
	"fmt"

	"nontree/internal/geom"
	"nontree/internal/graph"
	"nontree/internal/steiner"
)

// SLDRGResult extends Result with the Steiner seed, whose cost is the
// normalization baseline of the paper's Table 3.
type SLDRGResult struct {
	Result
	// Seed is the Iterated 1-Steiner tree the greedy loop started from.
	Seed *graph.Topology
}

// SLDRG runs the Steiner Low Delay Routing Graph algorithm (paper Figure 6):
// build a Steiner tree over the net with Iterated 1-Steiner (Step 1), then
// greedily add edges — between any pair of pins or Steiner points — while
// the objective improves (Steps 2–3).
func SLDRG(pins []geom.Point, steinerOpts steiner.Options, opts Options) (*SLDRGResult, error) {
	seed, err := steiner.Tree(pins, steinerOpts)
	if err != nil {
		return nil, fmt.Errorf("core: SLDRG Steiner seed: %w", err)
	}
	res, err := LDRG(seed, opts)
	if err != nil {
		return nil, fmt.Errorf("core: SLDRG greedy phase: %w", err)
	}
	return &SLDRGResult{Result: *res, Seed: seed}, nil
}
