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
	inc, err := NewIncremental(topo, rc.Default(), nil)
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
		inc.orderEpoch = 0
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
	inc, err := NewIncremental(topo, rc.Default(), nil)
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
	fresh, err := NewIncremental(topo, rc.Default(), nil)
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

// TestColumnMissAllocatesOnce: a column-cache miss solves in place into
// the new cache slot, and TransferResistance into its one result vector,
// so each makes a single allocation.
func TestColumnMissAllocatesOnce(t *testing.T) {
	topo := randomTree(t, 33, 12)
	inc, err := NewIncremental(topo, rc.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		inc.colCache[5] = nil
		inc.Column(5)
	}); n != 1 {
		t.Errorf("column miss: %v allocations, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = inc.cond.TransferResistance(3, 5) }); n != 1 {
		t.Errorf("TransferResistance: %v allocations, want 1", n)
	}
}
