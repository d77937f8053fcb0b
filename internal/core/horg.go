package core

import (
	"fmt"

	"nontree/internal/geom"
	"nontree/internal/graph"
	"nontree/internal/mst"
	"nontree/internal/steiner"
)

// CriticalSinkLDRG solves the CSORG problem of Section 5.1: LDRG steered by
// the weighted objective Σ α_i·t(n_i) instead of max delay. alphas[i]
// weights sink node i+1; see UniformCriticality and SingleCriticalSink for
// the two special cases the paper calls out.
func CriticalSinkLDRG(seed *graph.Topology, alphas []float64, opts Options) (*Result, error) {
	if len(alphas) != seed.NumPins()-1 {
		return nil, fmt.Errorf("core: %d criticalities for %d sinks", len(alphas), seed.NumPins()-1)
	}
	opts.Objective = &WeightedDelayObjective{Alphas: alphas}
	return LDRG(seed, opts)
}

// HORGResult reports the hybrid pipeline's stages.
type HORGResult struct {
	// Routing is the LDRG stage outcome over the Steiner seed.
	Routing *SLDRGResult
	// Sizing is the subsequent wire-sizing stage outcome.
	Sizing *WireSizeResult
}

// FinalObjective returns the objective after both stages.
func (r *HORGResult) FinalObjective() float64 { return r.Sizing.FinalObjective }

// HORG addresses the paper's most general formulation (Section 5.3): given
// sink criticalities, find Steiner points, a routing graph, and a width
// function minimizing Σ α_i·t(n_i). This implementation composes the
// paper's own building blocks: an Iterated 1-Steiner seed, criticality-
// weighted LDRG edge addition, then greedy WSORG wire sizing — both stages
// run with the same opts, under the weighted objective.
//
// When useSteiner is false the pipeline seeds from the MST instead,
// yielding the Steiner-free HORG restriction.
func HORG(pins []geom.Point, alphas []float64, useSteiner bool, wopts WireSizeOptions, opts Options) (*HORGResult, error) {
	if len(alphas) != len(pins)-1 {
		return nil, fmt.Errorf("core: %d criticalities for %d sinks", len(alphas), len(pins)-1)
	}
	opts.Objective = &WeightedDelayObjective{Alphas: alphas}

	var routing *SLDRGResult
	if useSteiner {
		r, err := SLDRG(pins, steiner.Options{}, opts)
		if err != nil {
			return nil, fmt.Errorf("core: HORG routing stage: %w", err)
		}
		routing = r
	} else {
		seed, err := mst.Prim(pins)
		if err != nil {
			return nil, fmt.Errorf("core: HORG MST seed: %w", err)
		}
		r, err := LDRG(seed, opts)
		if err != nil {
			return nil, fmt.Errorf("core: HORG routing stage: %w", err)
		}
		routing = &SLDRGResult{Result: *r, Seed: seed}
	}

	sizing, err := WireSize(routing.Topology, wopts, opts)
	if err != nil {
		return nil, fmt.Errorf("core: HORG sizing stage: %w", err)
	}
	return &HORGResult{Routing: routing, Sizing: sizing}, nil
}
