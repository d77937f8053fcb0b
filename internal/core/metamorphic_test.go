package core

import (
	"runtime"
	"testing"

	"nontree/internal/elmore"
	"nontree/internal/fpcmp"
	"nontree/internal/geom"
	"nontree/internal/graph"
	"nontree/internal/mst"
	"nontree/internal/netlist"
	"nontree/internal/obs"
	"nontree/internal/rc"
)

// Metamorphic suite: properties that must hold across systematic input
// transformations, with no reference values involved.

// scaledMST returns the MST of the seed net with every coordinate
// multiplied by k. Scaling preserves distance ordering, so the tree has
// the same combinatorial structure at every k.
func scaledMST(t *testing.T, seed int64, pins int, k float64) *graph.Topology {
	t.Helper()
	gen := netlist.NewGenerator(seed)
	n, err := gen.Generate(pins)
	if err != nil {
		t.Fatal(err)
	}
	scaled := make([]geom.Point, len(n.Pins))
	for i, p := range n.Pins {
		scaled[i] = geom.Point{X: p.X * k, Y: p.Y * k}
	}
	topo, err := mst.Prim(scaled)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestMetamorphicUniformScalingQuadratic: under uniform geometry scaling
// ×k, every Elmore delay is exactly quadratic in k,
//
//	t(k) = a + b·k + c·k²,
//
// because each term of the Elmore sum is (driver or wire resistance) ×
// (wire or sink capacitance): R_d·C_sink is constant, R_d·C_wire and
// R_wire·C_sink scale like k, and R_wire·C_wire like k². Three samples
// therefore determine the polynomial; the third finite difference gives
// the closed-form prediction t(4) = t(1) − 3·t(2) + 3·t(3), which must
// match the directly computed delay to floating-point accuracy.
func TestMetamorphicUniformScalingQuadratic(t *testing.T) {
	oracle := elmoreOracle()
	for seed := int64(0); seed < 10; seed++ {
		pins := 5 + int(seed%4)
		worst := func(k float64) float64 {
			topo := scaledMST(t, 4200+seed, pins, k)
			delays, err := oracle.SinkDelays(topo, nil)
			if err != nil {
				t.Fatal(err)
			}
			return elmore.MaxSinkDelay(delays, topo.NumPins())
		}
		t1, t2, t3, t4 := worst(1), worst(2), worst(3), worst(4)
		pred := t1 - 3*t2 + 3*t3
		if ratio := pred / t4; !fpcmp.EqTol(ratio, 1, 1e-9) {
			t.Errorf("seed %d: quadratic scaling violated: predicted t(4)=%.6g, got %.6g (ratio %v)",
				seed, pred, t4, ratio)
		}
	}
}

// TestMetamorphicPinPermutation: relabeling the sinks (the source stays
// pin 0) must not change the physics — each sink's Elmore delay follows
// its pin to the new index — and must not change the deterministic obs
// counters of a full greedy run, since counters aggregate over the same
// geometric candidate set regardless of labeling. The one exception is
// core.sweep.pruned: an early stop is measured against the running
// minimum of the candidates scored before it, and that order follows the
// pin labels.
func TestMetamorphicPinPermutation(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		const pins = 8
		gen := netlist.NewGenerator(5200 + seed)
		n, err := gen.Generate(pins)
		if err != nil {
			t.Fatal(err)
		}
		// A fixed nontrivial permutation of the sinks: rotate by 3.
		perm := make([]int, pins) // perm[old] = new
		perm[0] = 0
		for i := 1; i < pins; i++ {
			perm[i] = 1 + (i-1+3)%(pins-1)
		}
		permuted := make([]geom.Point, pins)
		for i, p := range n.Pins {
			permuted[perm[i]] = p
		}

		run := func(points []geom.Point) ([]float64, string) {
			topo, err := mst.Prim(points)
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			obs.Preregister(reg)
			res, err := LDRG(topo, Options{
				Oracle: &ElmoreOracle{Params: rc.Default(), Obs: reg},
				Obs:    reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			delays, err := elmoreOracle().SinkDelays(res.Topology, nil)
			if err != nil {
				t.Fatal(err)
			}
			snap := reg.Snapshot().Deterministic()
			delete(snap.Counters, obs.CtrCandidatesPruned)
			return delays, snap.Fingerprint()
		}

		base, baseFP := run(n.Pins)
		permDelays, permFP := run(permuted)

		for i := 1; i < pins; i++ {
			got, want := permDelays[perm[i]], base[i]
			if !fpcmp.EqTol(got/want, 1, 1e-9) {
				t.Errorf("seed %d: sink %d→%d delay changed under permutation: %.6g vs %.6g",
					seed, i, perm[i], want, got)
			}
		}
		if baseFP != permFP {
			t.Errorf("seed %d: obs counter fingerprint changed under pin permutation:\n%s\nvs\n%s",
				seed, baseFP, permFP)
		}
	}
}

// TestMetamorphicWorkersByteIdentical: the DESIGN.md §7/§10 contract —
// results AND deterministic obs counters are byte-identical for any
// Options.Workers value. Checked for LDRG, LDRGWithTaps, and WireSize at
// Workers ∈ {1, 4, GOMAXPROCS}.
func TestMetamorphicWorkersByteIdentical(t *testing.T) {
	//nontree:allow nondetsource the point of the test is that results do NOT depend on this value
	maxprocs := runtime.GOMAXPROCS(0)
	workerSet := []int{1, 4, maxprocs}

	type outcome struct {
		edges []graph.Edge
		final float64
		fp    string
	}

	algorithms := []struct {
		name string
		run  func(seed *graph.Topology, workers int, rec obs.Recorder) (outcome, error)
	}{
		{"ldrg", func(s *graph.Topology, w int, rec obs.Recorder) (outcome, error) {
			res, err := LDRG(s, Options{
				Oracle:  &ElmoreOracle{Params: rc.Default(), Obs: rec},
				Workers: w,
				Obs:     rec,
			})
			if err != nil {
				return outcome{}, err
			}
			return outcome{edges: res.AddedEdges, final: res.FinalObjective}, nil
		}},
		{"taps", func(s *graph.Topology, w int, rec obs.Recorder) (outcome, error) {
			res, err := LDRGWithTaps(s, Options{
				Oracle:  &ElmoreOracle{Params: rc.Default(), Obs: rec},
				Workers: w,
				Obs:     rec,
			})
			if err != nil {
				return outcome{}, err
			}
			return outcome{edges: res.AddedEdges, final: res.FinalObjective}, nil
		}},
		{"wiresize", func(s *graph.Topology, w int, rec obs.Recorder) (outcome, error) {
			res, err := WireSize(s, WireSizeOptions{}, Options{
				Oracle:  &ElmoreOracle{Params: rc.Default(), Obs: rec},
				Workers: w,
				Obs:     rec,
			})
			if err != nil {
				return outcome{}, err
			}
			return outcome{final: res.FinalObjective}, nil
		}},
	}

	for _, algo := range algorithms {
		for seed := int64(0); seed < 3; seed++ {
			topo := randomMST(t, 6300+seed, 10)
			var ref outcome
			for wi, w := range workerSet {
				reg := obs.NewRegistry()
				obs.Preregister(reg)
				out, err := algo.run(topo, w, reg)
				if err != nil {
					t.Fatalf("%s seed %d workers %d: %v", algo.name, seed, w, err)
				}
				out.fp = reg.Snapshot().Deterministic().Fingerprint()
				if wi == 0 {
					ref = out
					continue
				}
				if len(out.edges) != len(ref.edges) {
					t.Fatalf("%s seed %d: workers %d accepted %d edges, workers %d accepted %d",
						algo.name, seed, workerSet[0], len(ref.edges), w, len(out.edges))
				}
				for i := range out.edges {
					if out.edges[i] != ref.edges[i] {
						t.Errorf("%s seed %d: edge %d differs: %v vs %v",
							algo.name, seed, i, ref.edges[i], out.edges[i])
					}
				}
				//nontree:allow floatcmp byte-identity across Workers is the contract under test; any ULP difference is a bug
				if out.final != ref.final {
					t.Errorf("%s seed %d: objective differs at workers %d: %x vs %x",
						algo.name, seed, w, ref.final, out.final)
				}
				if out.fp != ref.fp {
					t.Errorf("%s seed %d: obs fingerprint differs at workers %d:\n%s\nvs\n%s",
						algo.name, seed, w, ref.fp, out.fp)
				}
			}
		}
	}
}
