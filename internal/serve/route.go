package serve

import (
	"fmt"

	"nontree"
	"nontree/internal/graph"
	"nontree/internal/netlist"
	"nontree/internal/obs"
	"nontree/internal/trace"
)

// Algorithm and oracle names accepted by RouteOptions. The route runner is
// deliberately restricted to the deterministic single-net entry points; the
// experiment harness drives the batch workloads.
const (
	AlgoLDRG  = "ldrg"
	AlgoSLDRG = "sldrg"
	AlgoTaps  = "taps"
	AlgoH1    = "h1"
	AlgoH2    = "h2"
	AlgoH3    = "h3"

	OracleElmore  = "elmore"
	OracleTwoPole = "twopole"
	OracleSpice   = "spice"
)

// RouteOptions parameterizes one routing run.
type RouteOptions struct {
	// Algo selects the algorithm (Algo* constants; default AlgoLDRG).
	Algo string `json:"algo,omitempty"`
	// Oracle selects the steering delay model (Oracle* constants; default
	// OracleElmore).
	Oracle string `json:"oracle,omitempty"`
	// Workers bounds per-sweep evaluation goroutines (0 = one per CPU).
	Workers int `json:"workers,omitempty"`
	// MaxEdges caps added edges (0 = to convergence).
	MaxEdges int `json:"max_edges,omitempty"`
}

// Node is one topology node of a route reply.
type Node struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
	// Steiner marks nodes introduced by the router (non-pins).
	Steiner bool `json:"steiner,omitempty"`
}

// EdgeRef is one wire of a route reply, endpoints in canonical order.
type EdgeRef struct {
	U int `json:"u"`
	V int `json:"v"`
}

// RouteResult is the outcome of one routing run.
type RouteResult struct {
	// Algo and Oracle echo the options actually applied (after defaults).
	Algo   string `json:"algo"`
	Oracle string `json:"oracle"`
	// Nodes and Edges describe the routed topology.
	Nodes []Node    `json:"nodes"`
	Edges []EdgeRef `json:"edges"`
	// AddedEdges lists the non-tree wires in acceptance order.
	AddedEdges []EdgeRef `json:"added_edges"`
	// InitialObjective and FinalObjective bracket the run (seconds).
	InitialObjective float64 `json:"initial_objective"`
	FinalObjective   float64 `json:"final_objective"`
	// Evaluations counts oracle invocations.
	Evaluations int `json:"evaluations"`
}

// normalize applies defaults and validates names.
func (o RouteOptions) normalize() (RouteOptions, error) {
	if o.Algo == "" {
		o.Algo = AlgoLDRG
	}
	switch o.Algo {
	case AlgoLDRG, AlgoSLDRG, AlgoTaps, AlgoH1, AlgoH2, AlgoH3:
	default:
		return o, fmt.Errorf("serve: unknown algorithm %q", o.Algo)
	}
	if o.Oracle == "" {
		o.Oracle = OracleElmore
	}
	switch o.Oracle {
	case OracleElmore, OracleTwoPole, OracleSpice:
	default:
		return o, fmt.Errorf("serve: unknown oracle %q", o.Oracle)
	}
	if o.Workers < 0 {
		return o, fmt.Errorf("serve: workers must be non-negative")
	}
	if o.MaxEdges < 0 {
		return o, fmt.Errorf("serve: max_edges must be non-negative")
	}
	return o, nil
}

// ValidateRouteOptions applies defaults and validates opts, returning the
// normalized form. It is the exported face of the /route option checks for
// clients that construct requests programmatically (the sim workload
// generator), so a generated stream can never carry options the daemon
// would reject as malformed.
func ValidateRouteOptions(opts RouteOptions) (RouteOptions, error) {
	return opts.normalize()
}

// Run routes one net with the requested algorithm, recording metrics into
// rec and the decision trace into tr (either may be nil). This is the
// single code path behind both the /route endpoint and the tracereplay
// drift checker, so a replay re-executes exactly what the daemon ran. The
// net is validated once, by nontree.MST or nontree.SLDRG, before any
// routing starts.
func Run(net *netlist.Net, opts RouteOptions, rec obs.Recorder, tr trace.Tracer) (*RouteResult, error) {
	opts, err := opts.normalize()
	if err != nil {
		return nil, err
	}

	cfg := nontree.Config{
		MaxAddedEdges: opts.MaxEdges,
		Workers:       opts.Workers,
		Obs:           rec,
		Trace:         tr,
	}
	switch opts.Oracle {
	case OracleSpice:
		cfg.Oracle = nontree.OracleSpice
	case OracleTwoPole:
		cfg.Oracle = nontree.OracleTwoPole
	}

	var res *nontree.Result
	switch opts.Algo {
	case AlgoSLDRG:
		sr, err := nontree.SLDRG(net, cfg)
		if err != nil {
			return nil, err
		}
		res = &sr.Result
	default:
		seed, err := nontree.MST(net)
		if err != nil {
			return nil, err
		}
		switch opts.Algo {
		case AlgoLDRG:
			res, err = nontree.LDRG(seed, cfg)
		case AlgoTaps:
			res, err = nontree.LDRGWithTaps(seed, cfg)
		case AlgoH1:
			res, err = nontree.H1(seed, cfg)
		case AlgoH2:
			res, err = nontree.H2(seed, cfg)
		case AlgoH3:
			res, err = nontree.H3(seed, cfg)
		}
		if err != nil {
			return nil, err
		}
	}

	out := &RouteResult{
		Algo:             opts.Algo,
		Oracle:           opts.Oracle,
		InitialObjective: res.InitialObjective,
		FinalObjective:   res.FinalObjective,
		Evaluations:      res.Evaluations,
		AddedEdges:       edgeRefs(res.AddedEdges),
	}
	t := res.Topology
	out.Nodes = make([]Node, t.NumNodes())
	for n := 0; n < t.NumNodes(); n++ {
		p := t.Point(n)
		out.Nodes[n] = Node{X: p.X, Y: p.Y, Steiner: t.IsSteiner(n)}
	}
	out.Edges = edgeRefs(t.Edges())
	return out, nil
}

func edgeRefs(edges []graph.Edge) []EdgeRef {
	out := make([]EdgeRef, len(edges))
	for i, e := range edges {
		out[i] = EdgeRef{U: e.U, V: e.V}
	}
	return out
}
