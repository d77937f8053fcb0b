package spice

import (
	"math"
	"math/cmplx"
	"testing"

	"nontree/internal/linalg"
)

func TestACSinglePoleResponse(t *testing.T) {
	// RC low-pass: |H(jω)| = 1/√(1+(ωRC)²), phase = −atan(ωRC).
	const r, c = 1000.0, 1e-12
	ckt, out := buildRC(t, r, c)
	tau := r * c
	fc := 1 / (2 * math.Pi * tau)

	freqs := []float64{0, fc / 10, fc, 10 * fc}
	resp, err := ACResponse(ckt, out, freqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range resp {
		w := 2 * math.Pi * freqs[i]
		wantMag := 1 / math.Sqrt(1+w*tau*w*tau)
		if math.Abs(p.Magnitude-wantMag) > 1e-9 {
			t.Errorf("f=%.3g: |H| = %.6f, want %.6f", p.FrequencyHz, p.Magnitude, wantMag)
		}
		wantPhase := -math.Atan(w * tau)
		if math.Abs(p.PhaseRad-wantPhase) > 1e-9 {
			t.Errorf("f=%.3g: phase %.4f, want %.4f", p.FrequencyHz, p.PhaseRad, wantPhase)
		}
	}
}

func TestBandwidth3dBSinglePole(t *testing.T) {
	const r, c = 2000.0, 0.5e-12
	ckt, out := buildRC(t, r, c)
	want := 1 / (2 * math.Pi * r * c)
	got, err := Bandwidth3dB(ckt, out, want/1000, want*1000)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(got-want) / want; rel > 1e-6 {
		t.Errorf("f3dB = %.6g, want %.6g (rel %.2g)", got, want, rel)
	}
}

func TestBandwidthRiseTimeProduct(t *testing.T) {
	// The classic single-pole identity: f₃dB · t₁₀₋₉₀ = ln9/(2π) ≈ 0.3497.
	const r, c = 1000.0, 1e-12
	ckt, out := buildRC(t, r, c)
	f3db, err := Bandwidth3dB(ckt, out, 1e6, 1e12)
	if err != nil {
		t.Fatal(err)
	}
	edge, err := MeasureEdge(ckt, out, DefaultMeasureOpts())
	if err != nil {
		t.Fatal(err)
	}
	product := f3db * edge.Rise1090
	if math.Abs(product-0.3497) > 0.01 {
		t.Errorf("bandwidth·rise-time = %.4f, want ≈0.3497", product)
	}
}

func TestACOnRLCShowsPeaking(t *testing.T) {
	// Underdamped series RLC peaks above its DC gain near resonance.
	ckt := NewCircuit()
	in, mid, out := ckt.Node(), ckt.Node(), ckt.Node()
	must(t, ckt.AddVSource(in, Ground, Step(0, 1, 0)))
	must(t, ckt.AddResistor(in, mid, 10))
	must(t, ckt.AddInductor(mid, out, 1e-9))
	must(t, ckt.AddCapacitor(out, Ground, 1e-12))
	f0 := 1 / (2 * math.Pi * math.Sqrt(1e-9*1e-12))
	resp, err := ACResponse(ckt, out, []float64{0, f0})
	if err != nil {
		t.Fatal(err)
	}
	if resp[1].Magnitude <= resp[0].Magnitude {
		t.Errorf("no resonant peaking: |H(f0)| = %.3f vs DC %.3f",
			resp[1].Magnitude, resp[0].Magnitude)
	}
	// Q = (1/R)·√(L/C) ≈ 3.16: the peak should be near that.
	q := math.Sqrt(1e-9/1e-12) / 10
	if math.Abs(resp[1].Magnitude-q)/q > 0.1 {
		t.Errorf("peak %.3f, want ≈Q=%.3f", resp[1].Magnitude, q)
	}
}

func TestACResponseMatchesDenseReference(t *testing.T) {
	// Expanding G and C once per call must give the bits of the dense
	// per-frequency assembly: an RLC ladder with parallel elements (stamps
	// summing into one entry) and a current source.
	ckt := NewCircuit()
	nodes := ckt.Nodes(6)
	must(t, ckt.AddVSource(nodes[0], Ground, Step(0, 1, 0)))
	must(t, ckt.AddISource(Ground, nodes[3], DC(1e-6)))
	for i := 1; i < len(nodes); i++ {
		must(t, ckt.AddResistor(nodes[i-1], nodes[i], 37*float64(i)))
		must(t, ckt.AddResistor(nodes[i-1], nodes[i], 1000))
		must(t, ckt.AddCapacitor(nodes[i], Ground, 0.3e-12*float64(i)))
		must(t, ckt.AddCapacitor(nodes[i-1], nodes[i], 0.01e-12))
	}
	must(t, ckt.AddInductor(nodes[2], nodes[4], 2e-9))
	freqs := append([]float64{0}, LogSpace(1e6, 1e12, 13)...)
	sys, err := referenceAssemble(ckt)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]complex128, sys.size)
	b[sys.vsrcRow[0]] = 1
	b[sys.index(nodes[3])] += 1
	for _, node := range nodes {
		got, err := ACResponse(ckt, node, freqs)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range freqs {
			m, err := linalg.FromRealPair(sys.g, sys.c, complex(0, 2*math.Pi*f))
			if err != nil {
				t.Fatal(err)
			}
			lu, err := linalg.FactorComplex(m)
			if err != nil {
				t.Fatal(err)
			}
			v := lu.Solve(b)[node-1]
			if math.Float64bits(got[i].Magnitude) != math.Float64bits(cmplx.Abs(v)) ||
				math.Float64bits(got[i].PhaseRad) != math.Float64bits(cmplx.Phase(v)) {
				t.Fatalf("node %d at %g Hz: %v∠%v, dense %v∠%v", node, f,
					got[i].Magnitude, got[i].PhaseRad, cmplx.Abs(v), cmplx.Phase(v))
			}
		}
	}
}

func TestACValidation(t *testing.T) {
	ckt, out := buildRC(t, 100, 1e-12)
	if _, err := ACResponse(ckt, 0, []float64{1e6}); err == nil {
		t.Error("ground node must be rejected")
	}
	if _, err := ACResponse(ckt, out, nil); err == nil {
		t.Error("empty frequency list must be rejected")
	}
	if _, err := ACResponse(ckt, out, []float64{-1}); err == nil {
		t.Error("negative frequency must be rejected")
	}
	if _, err := Bandwidth3dB(ckt, out, 0, 1e9); err == nil {
		t.Error("bad bracket must be rejected")
	}
	if _, err := Bandwidth3dB(ckt, out, 1e14, 1e15); err == nil {
		t.Error("unbracketed threshold must be rejected")
	}
}

func TestLogSpace(t *testing.T) {
	fs := LogSpace(1, 1000, 4)
	want := []float64{1, 10, 100, 1000}
	for i := range want {
		if math.Abs(fs[i]-want[i])/want[i] > 1e-12 {
			t.Errorf("LogSpace[%d] = %g, want %g", i, fs[i], want[i])
		}
	}
	if LogSpace(0, 10, 4) != nil || LogSpace(1, 10, 1) != nil {
		t.Error("degenerate LogSpace must return nil")
	}
}
