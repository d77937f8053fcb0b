package elmore

import (
	"math"
	"testing"

	"nontree/internal/geom"
	"nontree/internal/obs"
	"nontree/internal/rc"
)

// TestProbesDoNotAllocate guards the sweeps' hot path: once the endpoint
// columns are cached, WithEdge, WithWiden and WithTap write into the
// evaluator's probe buffer and only tally their counts, and the cutoff
// probes MaxWithEdge and MaxWithTap write no buffer at all, so a probe
// makes no allocation, even with a registry attached. Re-sorting the sink
// order at a new epoch reuses its buffer.
func TestProbesDoNotAllocate(t *testing.T) {
	topo := randomTree(t, 31, 12)
	inc, err := NewIncremental(new(Workspace), topo, rc.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	obs.Preregister(reg)
	inc.Obs = reg

	absent := topo.AbsentEdges()[0]
	widen := topo.Edges()[0]
	tapped, tapPt, found := topo.Edges()[0], geom.Point{}, false
	for _, e := range topo.Edges() {
		if e.U == 0 || e.V == 0 {
			continue
		}
		a, b := topo.Point(e.U), topo.Point(e.V)
		pt := geom.Point{
			X: math.Min(a.X, b.X) + math.Abs(b.X-a.X)*0.25,
			Y: math.Min(a.Y, b.Y) + math.Abs(b.Y-a.Y)*0.75,
		}
		if !pt.Eq(a) && !pt.Eq(b) && !pt.Eq(topo.Point(0)) {
			tapped, tapPt, found = e, pt, true
			break
		}
	}
	if !found {
		t.Fatal("no tappable edge")
	}

	for _, c := range []struct {
		name  string
		probe func() error
	}{
		{"WithEdge", func() error { _, err := inc.WithEdge(absent); return err }},
		{"WithWiden", func() error { _, err := inc.WithWiden(widen); return err }},
		{"WithTap", func() error { _, err := inc.WithTap(tapped, tapPt); return err }},
		{"MaxWithEdge", func() error { _, err := inc.MaxWithEdge(absent, math.Inf(1)); return err }},
		{"MaxWithTap", func() error { _, err := inc.MaxWithTap(tapped, tapPt, 0); return err }},
	} {
		// The first call caches the endpoint columns and sorts the sinks.
		if err := c.probe(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if n := testing.AllocsPerRun(100, func() { _ = c.probe() }); n != 0 {
			t.Errorf("%s: %v allocations per probe with cached columns, want 0", c.name, n)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		inc.ws.orderGen = 0
		inc.sinkOrder()
	}); n != 0 {
		t.Errorf("sink order: %v allocations per re-sort, want 0", n)
	}
}

// TestProbesShareOneBuffer pins the probe buffer contract: every probe
// returns the same slice, overwritten by the next probe, holding exactly
// the values a fresh evaluator returns for that probe alone.
func TestProbesShareOneBuffer(t *testing.T) {
	topo := randomTree(t, 32, 10)
	inc, err := NewIncremental(new(Workspace), topo, rc.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cands := topo.AbsentEdges()[:2]
	first, err := inc.WithEdge(cands[0])
	if err != nil {
		t.Fatal(err)
	}
	second, err := inc.WithEdge(cands[1])
	if err != nil {
		t.Fatal(err)
	}
	if &first[0] != &second[0] {
		t.Fatal("consecutive probes returned different slices, want the evaluator's one buffer")
	}
	fresh, err := NewIncremental(new(Workspace), topo, rc.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.WithEdge(cands[1])
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(second[i]) != math.Float64bits(want[i]) {
			t.Fatalf("node %d: %v, want %v", i, second[i], want[i])
		}
	}
}

// TestWarmAdoptRefillsColumnsWithoutAllocating: once an evaluator's
// workspace holds a column for every node, adopting a new base state of
// the same size and refilling every column solves in place into the kept
// storage, so an epoch makes no allocation. TransferResistance solves into
// its one result vector, a single allocation.
func TestWarmAdoptRefillsColumnsWithoutAllocating(t *testing.T) {
	topo := randomTree(t, 33, 12)
	p := rc.Default()
	inc, err := NewIncremental(new(Workspace), topo, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Solve(topo, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := topo.NumNodes()
	refill := func() {
		if err := inc.Adopt(sol); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < n; k++ {
			inc.Column(k)
		}
	}
	refill()
	if a := testing.AllocsPerRun(100, refill); a != 0 {
		t.Errorf("warm Adopt plus %d column fills: %v allocations, want 0", n, a)
	}
	// The refilled columns are those of a fresh evaluator, bit for bit.
	fresh, err := NewIncremental(new(Workspace), topo, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		got, want := inc.Column(k), fresh.Column(k)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("column %d entry %d: %v, want %v", k, i, got[i], want[i])
			}
		}
	}
	if a := testing.AllocsPerRun(100, func() { _, _ = inc.cond.TransferResistance(3, 5) }); a != 1 {
		t.Errorf("TransferResistance: %v allocations, want 1", a)
	}
}
