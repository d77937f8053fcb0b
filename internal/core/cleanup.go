package core

import (
	"fmt"

	"nontree/internal/graph"
)

// CleanupResult reports a cost-recovery pass.
type CleanupResult struct {
	// Topology is the cleaned routing graph (input is not mutated).
	Topology *graph.Topology
	// RemovedEdges lists edges deleted, in removal order.
	RemovedEdges []graph.Edge
	// InitialObjective and FinalObjective bracket the pass.
	InitialObjective, FinalObjective float64
	// CostRecovered is the wirelength saved (µm).
	CostRecovered float64
	// Evaluations counts oracle calls.
	Evaluations int
}

// Cleanup is a cost-recovery post-pass for non-tree routings: once LDRG has
// added shortcut wires, some original tree edges may carry little current —
// removing them saves wire, and occasionally even improves delay (less
// capacitance). The pass greedily removes the edge that saves the most wire
// among those whose removal keeps the graph connected and does not worsen
// the objective by more than slack (relative; 0 = strict non-degradation).
//
// This is the natural complement to the paper's edge-addition greedy: where
// LDRG explores tree → graph, Cleanup walks back graph → cheaper graph. On
// pure trees it removes nothing (every edge is a bridge).
func Cleanup(seed *graph.Topology, slack float64, opts Options) (_ *CleanupResult, rerr error) {
	defer func() { rerr = tagRequest(opts.RequestID, rerr) }()
	if err := checkSeed(seed, &opts); err != nil {
		return nil, err
	}
	if slack < 0 {
		return nil, fmt.Errorf("core: cleanup slack %g must be non-negative", slack)
	}
	t := seed.Clone()
	obj := opts.objective()
	res := &CleanupResult{Topology: t}

	eval := func() (float64, error) {
		delays, err := opts.Oracle.SinkDelays(t, opts.Width)
		if err != nil {
			return 0, err
		}
		res.Evaluations++
		return obj.Eval(delays, t.NumPins())
	}

	cur, err := eval()
	if err != nil {
		return nil, fmt.Errorf("core: cleanup initial evaluation: %w", err)
	}
	res.InitialObjective = cur
	budget := cur * (1 + slack)

	for {
		bestEdge := graph.Edge{U: -1, V: -1}
		bestSaving := 0.0
		bestVal := 0.0
		for _, e := range t.Edges() {
			if err := t.RemoveEdge(e); err != nil {
				return nil, err
			}
			ok := t.Connected()
			var val float64
			if ok {
				val, err = eval()
				if err != nil {
					_ = t.AddEdge(e)
					return nil, fmt.Errorf("core: cleanup evaluating removal of %v: %w", e, err)
				}
			}
			if err := t.AddEdge(e); err != nil {
				return nil, fmt.Errorf("core: cleanup restoring %v: %w", e, err)
			}
			if !ok || val > budget {
				continue
			}
			if saving := t.EdgeLength(e); saving > bestSaving {
				bestSaving = saving
				bestEdge = e
				bestVal = val
			}
		}
		if bestEdge.U < 0 {
			break
		}
		if err := t.RemoveEdge(bestEdge); err != nil {
			return nil, err
		}
		res.RemovedEdges = append(res.RemovedEdges, bestEdge)
		res.CostRecovered += bestSaving
		cur = bestVal
	}

	res.FinalObjective = cur
	return res, nil
}
