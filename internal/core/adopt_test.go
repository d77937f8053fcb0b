package core

import (
	"fmt"
	"math"
	"testing"

	"nontree/internal/elmore"
	"nontree/internal/graph"
	"nontree/internal/rc"
	"nontree/internal/trace"
)

// capturingOracle is ElmoreOracle remembering the evaluator a run stands
// up, with the live topology and width function it evaluates.
type capturingOracle struct {
	ElmoreOracle
	inc   *elmore.Incremental
	topo  *graph.Topology
	width rc.WidthFunc
}

func (o *capturingOracle) NewIncrementalSweep(ws *elmore.Workspace, sol *elmore.Solution, t *graph.Topology, width rc.WidthFunc) (*elmore.Incremental, error) {
	inc, err := o.ElmoreOracle.NewIncrementalSweep(ws, sol, t, width)
	o.inc, o.topo, o.width = inc, t, width
	return inc, err
}

// tracerFunc adapts a function to trace.Tracer, called once per event.
type tracerFunc func(trace.Event)

func (f tracerFunc) Emit(e trace.Event) { f(e) }

func (f tracerFunc) EmitEach(n int, fill func(int, *trace.Event)) {
	for i := 0; i < n; i++ {
		var e trace.Event
		fill(i, &e)
		f(e)
	}
}

// TestAdoptedFactorMatchesRefactor is the guard on winner-factor adoption:
// after every commit of an LDRG, LDRGWithTaps, H1 or WireSize run, the
// evaluator's base delays and every transfer-resistance column must equal
// those of a fresh factorization of the committed topology (a new
// evaluator's Refactor) bit for bit, and each adoption must have started
// a new epoch. The check runs from the run's own tracer, at each commit
// event, which the runs emit after adopting.
func TestAdoptedFactorMatchesRefactor(t *testing.T) {
	runs := []struct {
		name string
		run  func(seed *graph.Topology, opts Options) error
	}{
		{"LDRG", func(seed *graph.Topology, opts Options) error { _, err := LDRG(seed, opts); return err }},
		{"LDRGWithTaps", func(seed *graph.Topology, opts Options) error { _, err := LDRGWithTaps(seed, opts); return err }},
		{"H1", func(seed *graph.Topology, opts Options) error { _, err := H1(seed, opts); return err }},
		{"WireSize", func(seed *graph.Topology, opts Options) error {
			_, err := WireSize(seed, WireSizeOptions{MaxWidth: 3}, opts)
			return err
		}},
	}
	for _, r := range runs {
		commits := 0
		for seed := int64(0); seed < 4; seed++ {
			label := fmt.Sprintf("%s/seed %d", r.name, seed)
			oracle := &capturingOracle{ElmoreOracle: ElmoreOracle{Params: rc.Default()}}
			run := 0
			check := tracerFunc(func(ev trace.Event) {
				if ev.Kind != trace.KindEdgeAccepted && ev.Kind != trace.KindWireSizeStep {
					return
				}
				run++
				if got := oracle.inc.Epoch(); got != 1+run {
					t.Errorf("%s commit %d: epoch %d, want %d", label, run, got, 1+run)
				}
				fresh, err := elmore.NewIncremental(new(elmore.Workspace), new(elmore.Solution), oracle.topo, rc.Default(), oracle.width)
				if err != nil {
					t.Fatalf("%s commit %d: %v", label, run, err)
				}
				if err := sameBits(baseDelays(t, oracle.inc), baseDelays(t, fresh)); err != nil {
					t.Errorf("%s commit %d: base delays: %v", label, run, err)
				}
				for k := 0; k < oracle.topo.NumNodes(); k++ {
					if err := sameBits(oracle.inc.Column(k), fresh.Column(k)); err != nil {
						t.Errorf("%s commit %d: column %d: %v", label, run, k, err)
					}
				}
			})
			if err := r.run(randomMST(t, 9100+seed, 12), Options{Oracle: oracle, Trace: check}); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			commits += run
		}
		if commits == 0 {
			t.Errorf("%s: no run committed anything; the case checks nothing", r.name)
		}
	}
}

// sameBits compares two vectors bit for bit.
func sameBits(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("entry %d = %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// baseDelays is inc.BaseDelays, failing the test on an error.
func baseDelays(t *testing.T, inc *elmore.Incremental) []float64 {
	t.Helper()
	base, err := inc.BaseDelays()
	if err != nil {
		t.Fatal(err)
	}
	return base
}
