package elmore

import (
	"testing"

	"nontree/internal/mst"
	"nontree/internal/netlist"
	"nontree/internal/obs"
	"nontree/internal/rc"
)

// TestIncrementalObsCounters checks the Sherman–Morrison evaluator's cache
// accounting: the first touch of each endpoint column is a miss, every
// later touch a hit, and hits+misses == 2 × evaluations (two endpoint
// columns per candidate edge). Probes only tally: nothing reaches Obs
// until Flush, which delivers the totals.
func TestIncrementalObsCounters(t *testing.T) {
	gen := netlist.NewGenerator(911)
	n, err := gen.Generate(9)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := mst.Prim(n.Pins)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewIncremental(new(Workspace), new(Solution), topo, rc.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	obs.Preregister(reg)
	inc.Obs = reg

	cands := topo.AbsentEdges()
	if len(cands) == 0 {
		t.Fatal("no candidate edges on a 9-pin tree")
	}
	evaluated := 0
	touched := map[int]bool{}
	wantMisses := 0
	for _, e := range cands {
		for _, k := range []int{e.U, e.V} {
			if !touched[k] {
				touched[k] = true
				wantMisses++
			}
		}
		if _, err := inc.WithEdge(e); err != nil {
			t.Fatalf("WithEdge(%v): %v", e, err)
		}
		evaluated++
	}

	for _, name := range []string{obs.CtrIncrementalEvals, obs.CtrIncrementalHits, obs.CtrIncrementalMisses} {
		if got := reg.Snapshot().Counters[name]; got != 0 {
			t.Errorf("%s = %d before Flush, want 0", name, got)
		}
	}
	inc.Flush()
	c := reg.Snapshot().Counters
	if got := c[obs.CtrIncrementalEvals]; got != int64(evaluated) {
		t.Errorf("%s = %d, want %d", obs.CtrIncrementalEvals, got, evaluated)
	}
	if got := c[obs.CtrIncrementalMisses]; got != int64(wantMisses) {
		t.Errorf("%s = %d, want %d (one per distinct endpoint)",
			obs.CtrIncrementalMisses, got, wantMisses)
	}
	wantHits := int64(2*evaluated - wantMisses)
	if got := c[obs.CtrIncrementalHits]; got != wantHits {
		t.Errorf("%s = %d, want %d (hits+misses == 2·evaluations)",
			obs.CtrIncrementalHits, got, wantHits)
	}
}
