package core

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"nontree/internal/graph"
	"nontree/internal/netlist"
	"nontree/internal/steiner"
)

// sameResult asserts the fields the determinism guarantee covers are
// byte-identical between two runs: added edges, the full objective trace,
// the final objective, and the oracle-invocation count.
func sameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if len(want.AddedEdges) != len(got.AddedEdges) {
		t.Fatalf("%s: %d added edges, want %d", label, len(got.AddedEdges), len(want.AddedEdges))
	}
	for i := range want.AddedEdges {
		if want.AddedEdges[i] != got.AddedEdges[i] {
			t.Errorf("%s: added edge %d differs: %v, want %v", label, i, got.AddedEdges[i], want.AddedEdges[i])
		}
	}
	if len(want.Trace) != len(got.Trace) {
		t.Fatalf("%s: trace length %d, want %d", label, len(got.Trace), len(want.Trace))
	}
	for i := range want.Trace {
		if want.Trace[i] != got.Trace[i] {
			t.Errorf("%s: trace[%d] differs: %.17g, want %.17g", label, i, got.Trace[i], want.Trace[i])
		}
	}
	if want.FinalObjective != got.FinalObjective {
		t.Errorf("%s: final objective %.17g, want %.17g", label, got.FinalObjective, want.FinalObjective)
	}
	if want.InitialObjective != got.InitialObjective {
		t.Errorf("%s: initial objective %.17g, want %.17g", label, got.InitialObjective, want.InitialObjective)
	}
	if want.Evaluations != got.Evaluations {
		t.Errorf("%s: evaluations %d, want %d", label, got.Evaluations, want.Evaluations)
	}
}

func withWorkers(opts Options, w int) Options {
	opts.Workers = w
	return opts
}

// TestParallelEquivalenceLDRG asserts every Workers value reproduces the
// reference greedy's decisions on seeded random nets, across both oracles
// (Elmore on both scoring paths) and all the LDRG-family entry points, and
// that Workers never changes Evaluations either.
func TestParallelEquivalenceLDRG(t *testing.T) {
	type oracleCase struct {
		name   string
		oracle DelayOracle
		pins   []int // SPICE is ~100× slower per call; keep its nets small
	}
	cases := []oracleCase{
		{"elmore", elmoreOracle(), []int{5, 9, 14, 20}},
		{"elmore-full", fullSolve{elmoreOracle()}, []int{5, 9, 14}},
		{"spice", spiceOracle(), []int{5, 8}},
	}
	if testing.Short() {
		cases[0].pins = []int{5, 9}
		cases[1].pins = []int{5, 9}
		cases[2].pins = []int{5}
	}
	// check runs one entry point at every worker count against its
	// reference result.
	check := func(label string, ref *Result, run func(workers int) (*Result, error)) {
		t.Helper()
		var first *Result
		for _, workers := range []int{1, 2, 4, 7} {
			wl := fmt.Sprintf("%s/w%d", label, workers)
			got, err := run(workers)
			if err != nil {
				t.Fatalf("%s: %v", wl, err)
			}
			matchReference(t, wl, ref, got)
			if first == nil {
				first = got
			} else {
				sameResult(t, wl, first, got)
			}
		}
	}
	for _, oc := range cases {
		for _, pins := range oc.pins {
			seed := int64(700 + pins)
			topo := randomMST(t, seed, pins)
			base := Options{Oracle: oc.oracle}
			label := fmt.Sprintf("%s/%dpins", oc.name, pins)

			ref, _, err := referenceGreedy(topo, base, false)
			if err != nil {
				t.Fatal(err)
			}
			check("LDRG/"+label, ref, func(w int) (*Result, error) { return LDRG(topo, withWorkers(base, w)) })

			if oc.name == "spice" && pins > 5 {
				continue // the remaining variants re-run the whole search
			}

			gen := netlist.NewGenerator(seed)
			net, err := gen.Generate(pins)
			if err != nil {
				t.Fatal(err)
			}
			stree, err := steiner.Tree(net.Pins, steiner.Options{})
			if err != nil {
				t.Fatal(err)
			}
			refS, _, err := referenceGreedy(stree, base, false)
			if err != nil {
				t.Fatal(err)
			}
			check("SLDRG/"+label, refS, func(w int) (*Result, error) {
				res, err := SLDRG(net.Pins, steiner.Options{}, withWorkers(base, w))
				if err != nil {
					return nil, err
				}
				return &res.Result, nil
			})

			alphas := UniformCriticality(topo.NumPins())
			alphas[len(alphas)-1] = 3 // skew criticality so ties differ from ORG
			weighted := base
			weighted.Objective = &WeightedDelayObjective{Alphas: alphas}
			refC, _, err := referenceGreedy(topo, weighted, false)
			if err != nil {
				t.Fatal(err)
			}
			check("CriticalSinkLDRG/"+label, refC, func(w int) (*Result, error) {
				return CriticalSinkLDRG(topo, alphas, withWorkers(base, w))
			})

			refT, _, err := referenceGreedy(topo, base, true)
			if err != nil {
				t.Fatal(err)
			}
			check("LDRGWithTaps/"+label, refT, func(w int) (*Result, error) { return LDRGWithTaps(topo, withWorkers(base, w)) })
		}
	}
}

// TestParallelEquivalenceHORG covers the hybrid pipeline end to end: the
// routing stage and the downstream sizing stage must both match the
// reference greedy on both scoring paths at any worker count, with the
// same Evaluations.
func TestParallelEquivalenceHORG(t *testing.T) {
	gen := netlist.NewGenerator(41)
	net, err := gen.Generate(8)
	if err != nil {
		t.Fatal(err)
	}
	alphas := UniformCriticality(8)
	ws := WireSizeOptions{MaxWidth: 3}

	stree, err := steiner.Tree(net.Pins, steiner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	obj := &WeightedDelayObjective{Alphas: alphas}
	refRouting, _, err := referenceGreedy(stree, Options{Oracle: elmoreOracle(), Objective: obj}, false)
	if err != nil {
		t.Fatal(err)
	}
	refSizing, err := referenceWireSize(refRouting.Topology, ws, Options{Oracle: elmoreOracle(), Objective: obj})
	if err != nil {
		t.Fatal(err)
	}
	for _, full := range []bool{false, true} {
		var first *HORGResult
		for _, workers := range []int{1, 5} {
			got, err := HORG(net.Pins, alphas, true, ws, Options{Oracle: scoredBy(full), Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("HORG/full=%v/w%d", full, workers)
			matchReference(t, label+" routing", refRouting, &got.Routing.Result)
			if g, w := got.Sizing.Fingerprint(), refSizing.Fingerprint(); g != w {
				t.Errorf("%s sizing differs from the reference:\ngot:\n%swant:\n%s", label, g, w)
			}
			if first == nil {
				first = got
				continue
			}
			sameResult(t, label+" routing", &first.Routing.Result, &got.Routing.Result)
			if got.Sizing.Evaluations != first.Sizing.Evaluations {
				t.Errorf("%s sizing: evaluations %d vs %d at Workers 1", label, got.Sizing.Evaluations, first.Sizing.Evaluations)
			}
			if got.FinalObjective() != first.FinalObjective() {
				t.Errorf("%s final objective %.17g vs %.17g at Workers 1", label, got.FinalObjective(), first.FinalObjective())
			}
		}
	}
}

// TestParallelEquivalenceWireSize asserts the widening sweep picks the
// reference's widths under any worker count, on two width grids, with
// Evaluations independent of Workers.
func TestParallelEquivalenceWireSize(t *testing.T) {
	topo := randomMST(t, 808, 10)
	for _, maxW := range []int{3, 2} {
		wopts := WireSizeOptions{MaxWidth: maxW}
		base := Options{Oracle: elmoreOracle()}
		ref, err := referenceWireSize(topo, wopts, base)
		if err != nil {
			t.Fatal(err)
		}
		var first *WireSizeResult
		for _, workers := range []int{1, 6} {
			label := fmt.Sprintf("maxwidth=%d/w%d", maxW, workers)
			got, err := WireSize(topo, wopts, withWorkers(base, workers))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if g, w := got.Fingerprint(), ref.Fingerprint(); g != w {
				t.Errorf("%s: widths differ from the reference:\ngot:\n%swant:\n%s", label, g, w)
			}
			if first == nil {
				first = got
			} else if got.Evaluations != first.Evaluations {
				t.Errorf("%s: evaluations %d vs %d at Workers 1", label, got.Evaluations, first.Evaluations)
			}
		}
	}
}

// raceRow is one shared receiver of the concurrency contract: an oracle,
// or an objective. call runs the receiver's method on a topology and
// returns a vector to compare bit for bit; recv is the receiver itself,
// whose type TestRaceTableCoversOracleMethods checks.
type raceRow struct {
	name        string
	recv        any
	pins, iters int
	call        func(t *graph.Topology) ([]float64, error)
}

// raceTable lists every SinkDelays, Eval and Evaluate method of the
// module with one shared receiver each. An objective is fed the delays of
// a private Elmore oracle, so only its own receiver is shared.
func raceTable() []raceRow {
	el, tp, sp := elmoreOracle(), &TwoPoleOracle{Params: elmoreOracle().Params}, spiceOracle()
	oracle := func(o DelayOracle) func(t *graph.Topology) ([]float64, error) {
		return func(t *graph.Topology) ([]float64, error) { return o.SinkDelays(t, nil) }
	}
	objective := func(obj Objective) func(t *graph.Topology) ([]float64, error) {
		return func(t *graph.Topology) ([]float64, error) {
			delays, err := elmoreOracle().SinkDelays(t, nil)
			if err != nil {
				return nil, err
			}
			v, err := obj.Eval(delays, t.NumPins())
			return []float64{v}, err
		}
	}
	maxDelay := MaxDelayObjective{}
	weights := UniformCriticality(12)
	for i := range weights {
		weights[i] = float64(1 + i%3)
	}
	weighted := &WeightedDelayObjective{Alphas: weights}
	return []raceRow{
		{"elmore", el, 12, 8, oracle(el)},
		{"twopole", tp, 12, 8, oracle(tp)},
		{"spice", sp, 6, 2, oracle(sp)},
		{"max-delay", maxDelay, 12, 8, objective(maxDelay)},
		{"weighted-delay", weighted, 12, 8, objective(weighted)},
	}
}

// TestOracleConcurrentStress hammers each shared receiver of raceTable
// from many goroutines — some on a shared read-only topology, some on
// private clones — and checks every shared-topology result against a
// serial run bit for bit. Run under -race it guards the DelayOracle and
// Objective thread-safety contract: a method that writes its receiver
// races with itself here.
func TestOracleConcurrentStress(t *testing.T) {
	for _, row := range raceTable() {
		t.Run(row.name, func(t *testing.T) {
			pins, iters := row.pins, row.iters
			shared := randomMST(t, 99, pins)
			want, err := row.call(shared)
			if err != nil {
				t.Fatal(err)
			}
			const goroutines = 16
			errs := make(chan error, goroutines)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					topo := shared
					if g%2 == 0 {
						// Half the goroutines perturb private clones, the
						// add/score/remove pattern of a sweep worker.
						topo = shared.Clone()
					}
					for i := 0; i < iters; i++ {
						if topo != shared {
							e := graph.Edge{U: 0, V: 1 + (g/2+i)%(pins-1)}.Canon()
							added := !topo.HasEdge(e) && topo.EdgeLength(e) > 0
							if added {
								if err := topo.AddEdge(e); err != nil {
									errs <- err
									return
								}
							}
							if _, err := row.call(topo); err != nil {
								errs <- fmt.Errorf("goroutine %d clone eval: %w", g, err)
								return
							}
							if added {
								if err := topo.RemoveEdge(e); err != nil {
									errs <- err
									return
								}
							}
							continue
						}
						got, err := row.call(topo)
						if err != nil {
							errs <- fmt.Errorf("goroutine %d shared eval: %w", g, err)
							return
						}
						for n := range want {
							if math.Float64bits(got[n]) != math.Float64bits(want[n]) {
								errs <- fmt.Errorf("goroutine %d: result[%d] = %.17g, want %.17g", g, n, got[n], want[n])
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// TestRaceTableCoversOracleMethods parses the module's non-test Go for
// methods named SinkDelays, Eval or Evaluate and fails when a receiver
// type of one is missing from raceTable, so a new oracle or objective
// cannot skip the race test.
func TestRaceTableCoversOracleMethods(t *testing.T) {
	covered := map[string]bool{}
	for _, row := range raceTable() {
		typ := reflect.TypeOf(row.recv)
		if typ.Kind() == reflect.Pointer {
			typ = typ.Elem()
		}
		covered[typ.PkgPath()+"."+typ.Name()] = true
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || fileExists(filepath.Join(path, "go.mod"))) {
				return filepath.SkipDir // fixtures, tool state, and other modules
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := "nontree"
		if rel != "." {
			pkg += "/" + filepath.ToSlash(rel)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil {
				continue
			}
			switch fn.Name.Name {
			case "SinkDelays", "Eval", "Evaluate":
			default:
				continue
			}
			recv := fn.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			id, ok := recv.(*ast.Ident)
			if !ok {
				t.Errorf("%s: %s has a receiver this test cannot name", fset.Position(fn.Pos()), fn.Name.Name)
				continue
			}
			found++
			if key := pkg + "." + id.Name; !covered[key] {
				t.Errorf("%s: %s.%s is missing from raceTable", fset.Position(fn.Pos()), key, fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found < len(covered) {
		t.Errorf("found %d methods for %d table rows; the walk missed the module", found, len(covered))
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// TestParallelLDRGStress runs the full parallel greedy loop on a 30-pin net
// with more workers than CPUs; under -race this exercises the sweep engine's
// clone isolation and reduction end to end.
func TestParallelLDRGStress(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	topo := randomMST(t, 3030, 30)
	base := Options{Oracle: fullSolve{elmoreOracle()}, MaxAddedEdges: 3}
	ref, _, err := referenceGreedy(topo, base, false)
	if err != nil {
		t.Fatal(err)
	}
	par, err := LDRG(topo, withWorkers(base, 8))
	if err != nil {
		t.Fatal(err)
	}
	matchReference(t, "30-pin", ref, par)
	if par.Evaluations != ref.Evaluations {
		t.Errorf("30-pin: %d evaluations, reference %d", par.Evaluations, ref.Evaluations)
	}
	if len(par.AddedEdges) == 0 {
		t.Error("expected the 30-pin net to accept at least one edge")
	}
}

// TestSweepDeterminismGolden locks in the exact edge-acceptance sequence of
// a fixed seed net so future refactors cannot silently change candidate
// ordering or tie-breaking. The golden values were produced by the
// sequential full-solve scan at the commit introducing the parallel
// engine; the full-solve pool and the incremental scan, at any worker
// count, and the reference greedy must keep reproducing them bit for bit.
func TestSweepDeterminismGolden(t *testing.T) {
	topo := randomMST(t, 1994, 16)
	const (
		wantEdges = "[0-10 0-6]"
		wantFinal = "3.0426723953514312e-09"
	)
	check := func(label string, res *Result) {
		t.Helper()
		if got := fmt.Sprintf("%v", res.AddedEdges); got != wantEdges {
			t.Errorf("%s: edge sequence %s, want %s", label, got, wantEdges)
		}
		if got := fmt.Sprintf("%.17g", res.FinalObjective); got != wantFinal {
			t.Errorf("%s: final objective %s, want %s", label, got, wantFinal)
		}
	}
	ref, _, err := referenceGreedy(topo, Options{Oracle: elmoreOracle()}, false)
	if err != nil {
		t.Fatal(err)
	}
	check("reference", ref)
	for _, full := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			res, err := LDRG(topo, Options{Oracle: scoredBy(full), Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("full=%v/workers=%d", full, workers), res)
		}
	}
}
