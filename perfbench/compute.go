package main

import (
	"fmt"
	"math"
	"time"

	"nontree/internal/core"
	"nontree/internal/elmore"
	"nontree/internal/graph"
	"nontree/internal/mst"
	"nontree/internal/netlist"
	"nontree/internal/obs"
	"nontree/internal/rc"
	"nontree/internal/spice"
	"nontree/internal/steiner"
)

var (
	// paperAlgos are the algorithms of the paper's tables.
	paperAlgos = []string{"ldrg", "sldrg", "h1", "h2", "h3"}
	largeSizes = []int{100, 150, 200}
	// improving are the algorithms that accept an edge only when it lowers
	// the objective; h2 and h3 add theirs unconditionally, as in the
	// paper's Table 5.
	improving = map[string]bool{"ldrg": true, "sldrg": true, "h1": true}
)

// cell is one paper-eval or large-net op: algorithm algo on net net.
type cell struct {
	algo string
	net  int
}

// cellList is a compute workload's op list.
type cellList struct {
	nets  []*netlist.Net
	cells []cell
}

// cellOps generates netsPerSize nets of each size from seed, and one cell
// per net and algorithm.
func cellOps(seed int64, sizes []int, algos []string, netsPerSize int) (cellList, error) {
	var l cellList
	gen := netlist.NewGenerator(seed)
	for k := 0; k < netsPerSize; k++ {
		for _, size := range sizes {
			net, err := gen.Generate(size)
			if err != nil {
				return l, err
			}
			net.Name = fmt.Sprintf("net%d-%d", size, k)
			l.nets = append(l.nets, net)
			for _, algo := range algos {
				l.cells = append(l.cells, cell{algo, len(l.nets) - 1})
			}
		}
	}
	return l, nil
}

// compute runs a cell list one op at a time. With spice set (paper-eval)
// it measures seed and result with the transient simulator, as the paper's
// tables do; otherwise (large-net) it makes one full Elmore solve of the
// result.
type compute struct {
	list   cellList
	spice  bool
	params rc.Params
	// refs holds each cell's first outcome; every repeat must equal it.
	refs []*outcome
	// search and measure receive the program's metrics in traced passes.
	search, measure *obs.Registry
}

// outcome is what one cell produced.
type outcome struct {
	fingerprint                                string
	seedDelay, finalDelay, seedCost, finalCost float64
}

// newCompute warms up on the first warmUp cells, which also become the
// first references the timed passes are checked against.
func newCompute(l cellList, spice bool, warmUp int) (*compute, error) {
	r := &compute{list: l, spice: spice, params: rc.Default(), refs: make([]*outcome, len(l.cells)),
		search: obs.NewRegistry(), measure: obs.NewRegistry()}
	for i := 0; i < min(warmUp, len(l.cells)); i++ {
		if err := r.do(i, nil); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return r, nil
}

func (r *compute) registries() (search, measure *obs.Registry) { return r.search, r.measure }

func (r *compute) pass(p int, tr *tracer) passResult {
	lat := make([]float64, len(r.list.cells))
	errs := make([]error, len(r.list.cells))
	for _, i := range passOrder(len(r.list.cells), 1, p) {
		start := time.Now()
		errs[i] = r.do(i, tr)
		lat[i] = msSince(start)
	}
	return collect(lat, errs)
}

// quality averages the cells' ratios. Every repeat must equal its cell's
// first outcome, so these are the ratios of every pass.
func (r *compute) quality() (delay, cost float64) {
	n := 0
	for _, o := range r.refs {
		if o == nil {
			continue
		}
		delay += o.finalDelay / o.seedDelay
		cost += o.finalCost / o.seedCost
		n++
	}
	return delay / float64(n), cost / float64(n)
}

// do runs cell i and checks its outcome: the objective must not rise for
// the improving algorithms, and a repeat must equal the cell's first
// outcome bit for bit.
func (r *compute) do(i int, tr *tracer) error {
	c := r.list.cells[i]
	net := r.list.nets[c.net]
	// Untraced passes hand the program no recorder at all.
	var search, measure obs.Recorder
	if tr != nil {
		search, measure = r.search, r.measure
	}
	start := time.Now()
	seed, err := r.seed(i, c.algo, net, tr)
	if err != nil {
		return fmt.Errorf("%s seed of %s: %w", c.algo, net.Name, err)
	}
	t := time.Now()
	res, err := r.route(c.algo, seed, search)
	tr.span(i, "core.route", "op", t)
	if err != nil {
		return fmt.Errorf("%s on %s: %w", c.algo, net.Name, err)
	}
	o := outcome{fingerprint: res.Fingerprint(), seedCost: seed.Cost(), finalCost: res.Topology.Cost()}
	if r.spice {
		if o.seedDelay, err = r.spiceDelay(i, seed, measure, tr); err == nil {
			o.finalDelay, err = r.spiceDelay(i, res.Topology, measure, tr)
		}
	} else {
		o.seedDelay, o.finalDelay = res.InitialObjective, res.FinalObjective
		err = r.fullSolve(i, res, search, tr)
	}
	tr.span(i, "op", "", start)
	switch {
	case err != nil:
		return fmt.Errorf("%s on %s: %w", c.algo, net.Name, err)
	case improving[c.algo] && res.FinalObjective > res.InitialObjective:
		return fmt.Errorf("%s on %s: final objective %g s above the initial %g s",
			c.algo, net.Name, res.FinalObjective, res.InitialObjective)
	case r.refs[i] == nil:
		r.refs[i] = &o
	case *r.refs[i] != o:
		return fmt.Errorf("%s on %s: repeat differs from the first run", c.algo, net.Name)
	}
	return nil
}

// seed builds the cell's seed tree: Iterated 1-Steiner for sldrg, the MST
// otherwise.
func (r *compute) seed(i int, algo string, net *netlist.Net, tr *tracer) (*graph.Topology, error) {
	start := time.Now()
	if algo == "sldrg" {
		t, err := steiner.Tree(net.Pins, steiner.Options{})
		tr.span(i, "steiner.seed", "op", start)
		return t, err
	}
	t, err := mst.Prim(net.Pins)
	tr.span(i, "mst.seed", "op", start)
	return t, err
}

// route runs algo from seed with the Elmore search oracle and the edge
// limits the paper's tables use.
func (r *compute) route(algo string, seed *graph.Topology, rec obs.Recorder) (*core.Result, error) {
	opts := core.Options{Oracle: &core.ElmoreOracle{Params: r.params, Obs: rec}, Workers: 1, Obs: rec}
	switch algo {
	case "h1":
		opts.MaxAddedEdges = 2
		return core.H1(seed, opts)
	case "h2":
		opts.MaxAddedEdges = 1
		return core.H2(seed, r.params, opts)
	case "h3":
		opts.MaxAddedEdges = 1
		return core.H3(seed, r.params, opts)
	}
	// ldrg, and sldrg from its Steiner seed.
	return core.LDRG(seed, opts)
}

// spiceDelay is the simulator-measured maximum sink delay of t.
func (r *compute) spiceDelay(i int, t *graph.Topology, rec obs.Recorder, tr *tracer) (float64, error) {
	start := time.Now()
	o := core.SpiceOracle{Params: r.params, Build: rc.BuildOpts{MaxSegmentLength: rc.DefaultMaxSegment},
		Measure: spice.DefaultMeasureOpts(), Obs: rec}
	d, err := o.SinkDelays(t, nil)
	tr.span(i, "spice.measure", "op", start)
	if err != nil {
		return 0, err
	}
	return elmore.MaxSinkDelay(d, t.NumPins()), nil
}

// fullSolve solves the Elmore model of the final topology from scratch.
// The sweeps re-score each winner with a full solve, so the result must
// equal the final objective bit for bit.
func (r *compute) fullSolve(i int, res *core.Result, rec obs.Recorder, tr *tracer) error {
	start := time.Now()
	o := core.ElmoreOracle{Params: r.params, Obs: rec}
	d, err := o.SinkDelays(res.Topology, nil)
	tr.span(i, "elmore.full_solve", "op", start)
	if err != nil {
		return err
	}
	if full := elmore.MaxSinkDelay(d, res.Topology.NumPins()); math.Float64bits(full) != math.Float64bits(res.FinalObjective) {
		return fmt.Errorf("a full Elmore solve gives %x s, the final objective is %x s", full, res.FinalObjective)
	}
	return nil
}
