package spice

import (
	"math"
	"testing"
)

// buildRC returns a circuit with a step source, series resistor r, and
// capacitor c to ground, plus the observation node.
func buildRC(t *testing.T, r, c float64) (*Circuit, int) {
	t.Helper()
	ckt := NewCircuit()
	in := ckt.Node()
	out := ckt.Node()
	if err := ckt.AddVSource(in, Ground, Step(0, 1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := ckt.AddResistor(in, out, r); err != nil {
		t.Fatal(err)
	}
	if err := ckt.AddCapacitor(out, Ground, c); err != nil {
		t.Fatal(err)
	}
	return ckt, out
}

func TestRCStepResponse50PercentDelay(t *testing.T) {
	// Analytic: v(t) = 1 - exp(-t/RC); 50% crossing at RC·ln2.
	const r, c = 1000.0, 1e-12
	want := r * c * math.Ln2

	for _, m := range []Method{Trapezoidal, BackwardEuler} {
		ckt, out := buildRC(t, r, c)
		delays, err := MeasureDelays(ckt, []int{out}, MeasureOpts{
			ThresholdFraction: 0.5,
			StepsPerHorizon:   4000,
			Method:            m,
		})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		got := delays[0]
		if rel := math.Abs(got-want) / want; rel > 0.01 {
			t.Errorf("%v: 50%% delay = %.4g, want %.4g (rel err %.3f)", m, got, want, rel)
		}
	}
}

func TestRCStepResponseArbitraryThresholds(t *testing.T) {
	const r, c = 250.0, 4e-12
	ckt, out := buildRC(t, r, c)
	for _, frac := range []float64{0.1, 0.5, 0.9} {
		want := -r * c * math.Log(1-frac)
		delays, err := MeasureDelays(ckt, []int{out}, MeasureOpts{
			ThresholdFraction: frac,
			StepsPerHorizon:   4000,
		})
		if err != nil {
			t.Fatalf("frac %v: %v", frac, err)
		}
		if rel := math.Abs(delays[0]-want) / want; rel > 0.02 {
			t.Errorf("frac %v: delay %.4g, want %.4g", frac, delays[0], want)
		}
	}
}

func TestTwoStageRCLadderDelayExceedsSingle(t *testing.T) {
	// A 2-stage ladder's far node must be slower than the near node.
	ckt := NewCircuit()
	in, n1, n2 := ckt.Node(), ckt.Node(), ckt.Node()
	must(t, ckt.AddVSource(in, Ground, Step(0, 1, 0)))
	must(t, ckt.AddResistor(in, n1, 1000))
	must(t, ckt.AddCapacitor(n1, Ground, 1e-12))
	must(t, ckt.AddResistor(n1, n2, 1000))
	must(t, ckt.AddCapacitor(n2, Ground, 1e-12))

	delays, err := MeasureDelays(ckt, []int{n1, n2}, DefaultMeasureOpts())
	if err != nil {
		t.Fatal(err)
	}
	if delays[0] >= delays[1] {
		t.Errorf("near node delay %.4g should be below far node %.4g", delays[0], delays[1])
	}
}

func TestTransientAllocsIndependentOfSteps(t *testing.T) {
	// Without Record a transient allocates only per run, never per step:
	// doubling the step count must not change its allocation count.
	const r, c = 1000.0, 1e-12
	ckt, _ := buildRC(t, r, c)
	tau := r * c
	for _, m := range []Method{Trapezoidal, BackwardEuler} {
		allocs := func(steps int) float64 {
			return testing.AllocsPerRun(5, func() {
				opts := TranOpts{Step: 5 * tau / float64(steps), Stop: 5 * tau, Method: m}
				res, err := Transient(ckt, opts)
				if err != nil {
					t.Fatal(err)
				}
				if res.Steps != steps {
					t.Fatalf("%v: %d steps, want %d", m, res.Steps, steps)
				}
			})
		}
		if a2, a4 := allocs(2000), allocs(4000); a2 != a4 {
			t.Errorf("%v: %v allocations at 2000 steps, %v at 4000", m, a2, a4)
		}
	}
}

func TestTransientMatchesAnalyticWaveform(t *testing.T) {
	const r, c = 1000.0, 1e-12
	ckt, out := buildRC(t, r, c)
	tau := r * c
	res, err := Transient(ckt, TranOpts{Step: tau / 500, Stop: 5 * tau, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, tm := range res.Times {
		want := 1 - math.Exp(-tm/tau)
		got := res.V[out][i]
		if math.Abs(got-want) > 0.005 {
			t.Fatalf("at t=%.3g: v=%.5f, want %.5f", tm, got, want)
		}
	}
}

func TestFinalValueSettlesToVdd(t *testing.T) {
	ckt, out := buildRC(t, 123, 4.5e-13)
	v, err := FinalValue(ckt, math.MaxFloat64)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v[out]-1) > 1e-12 {
		t.Errorf("final value %.6g, want 1", v[out])
	}
}

func TestOperatingPointVoltageDivider(t *testing.T) {
	ckt := NewCircuit()
	in, mid := ckt.Node(), ckt.Node()
	must(t, ckt.AddVSource(in, Ground, DC(2)))
	must(t, ckt.AddResistor(in, mid, 1000))
	must(t, ckt.AddResistor(mid, Ground, 3000))
	v, err := OperatingPoint(ckt)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v[mid]-1.5) > 1e-12 {
		t.Errorf("divider voltage %.6g, want 1.5", v[mid])
	}
}

func TestRLCSeriesReachesFinalValue(t *testing.T) {
	// Series RLC low-pass: the output must settle to the source value.
	ckt := NewCircuit()
	in, mid, out := ckt.Node(), ckt.Node(), ckt.Node()
	must(t, ckt.AddVSource(in, Ground, Step(0, 1, 0)))
	must(t, ckt.AddResistor(in, mid, 100))
	must(t, ckt.AddInductor(mid, out, 1e-9))
	must(t, ckt.AddCapacitor(out, Ground, 1e-12))

	tau := 100 * 1e-12
	res, err := Transient(ckt, TranOpts{Step: tau / 200, Stop: 40 * tau, Method: BackwardEuler})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Final[out]-1) > 0.01 {
		t.Errorf("RLC settles to %.4f, want 1", res.Final[out])
	}
}

func TestRLCDelayCloseToRCForSmallInductance(t *testing.T) {
	// With negligible inductance the RLC delay must match plain RC.
	mk := func(withL bool) float64 {
		ckt := NewCircuit()
		in, out := ckt.Node(), ckt.Node()
		must(t, ckt.AddVSource(in, Ground, Step(0, 1, 0)))
		if withL {
			mid := ckt.Node()
			must(t, ckt.AddResistor(in, mid, 1000))
			must(t, ckt.AddInductor(mid, out, 1e-15)) // ~fH: negligible
		} else {
			must(t, ckt.AddResistor(in, out, 1000))
		}
		must(t, ckt.AddCapacitor(out, Ground, 1e-12))
		d, err := MeasureDelays(ckt, []int{out}, DefaultMeasureOpts())
		if err != nil {
			t.Fatal(err)
		}
		return d[0]
	}
	rc, rlc := mk(false), mk(true)
	if rel := math.Abs(rlc-rc) / rc; rel > 0.01 {
		t.Errorf("RLC delay %.4g deviates from RC %.4g by %.2f%%", rlc, rc, rel*100)
	}
}

func TestISourceIntoResistor(t *testing.T) {
	// 1 mA into 1 kΩ to ground = 1 V.
	ckt := NewCircuit()
	n := ckt.Node()
	must(t, ckt.AddResistor(n, Ground, 1000))
	must(t, ckt.AddISource(Ground, n, DC(1e-3)))
	v, err := OperatingPoint(ckt)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v[n]-1) > 1e-12 {
		t.Errorf("node voltage %.6g, want 1", v[n])
	}
}

func TestFloatingNodeIsSingular(t *testing.T) {
	ckt := NewCircuit()
	a, b := ckt.Node(), ckt.Node()
	must(t, ckt.AddVSource(a, Ground, DC(1)))
	// b connects only through a capacitor: no DC path → singular G.
	must(t, ckt.AddCapacitor(a, b, 1e-12))
	if _, err := OperatingPoint(ckt); err == nil {
		t.Error("expected singular matrix error for floating node")
	}
}

func TestElementValidation(t *testing.T) {
	ckt := NewCircuit()
	n := ckt.Node()
	cases := []struct {
		name string
		err  error
	}{
		{"negative resistor", ckt.AddResistor(n, Ground, -5)},
		{"zero capacitor", ckt.AddCapacitor(n, Ground, 0)},
		{"same-node resistor", ckt.AddResistor(n, n, 100)},
		{"bad node", ckt.AddResistor(n, 99, 100)},
		{"nil waveform", ckt.AddVSource(n, Ground, nil)},
		{"zero inductor", ckt.AddInductor(n, Ground, 0)},
	}
	for _, c := range cases {
		if c.err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestEmptyCircuitRejected(t *testing.T) {
	ckt := NewCircuit()
	if _, err := OperatingPoint(ckt); err == nil {
		t.Error("expected error for circuit with only ground")
	}
}

func TestBadTranOpts(t *testing.T) {
	ckt, out := buildRC(t, 100, 1e-12)
	_ = out
	for _, opts := range []TranOpts{
		{Step: 0, Stop: 1},
		{Step: -1, Stop: 1},
		{Step: 2, Stop: 1},
	} {
		if _, err := Transient(ckt, opts); err == nil {
			t.Errorf("opts %+v: expected error", opts)
		}
	}
}

func TestTrapezoidalMoreAccurateThanBackwardEuler(t *testing.T) {
	// At a coarse step, trapezoidal should track the analytic RC waveform
	// better than backward Euler (2nd vs 1st order).
	const r, c = 1000.0, 1e-12
	tau := r * c
	errOf := func(m Method) float64 {
		ckt, out := buildRC(t, r, c)
		res, err := Transient(ckt, TranOpts{Step: tau / 10, Stop: 3 * tau, Method: m, Record: true})
		if err != nil {
			t.Fatal(err)
		}
		var worst float64
		for i, tm := range res.Times {
			want := 1 - math.Exp(-tm/tau)
			if e := math.Abs(res.V[out][i] - want); e > worst {
				worst = e
			}
		}
		return worst
	}
	if errTrap, errBE := errOf(Trapezoidal), errOf(BackwardEuler); errTrap >= errBE {
		t.Errorf("trapezoidal error %.4g not below backward-Euler %.4g", errTrap, errBE)
	}
}

func TestEarlyExitMatchesFullRun(t *testing.T) {
	// Threshold crossing times must be identical whether or not the
	// simulation exits early after the last crossing.
	const r, c = 1000.0, 1e-12
	ckt, out := buildRC(t, r, c)
	tau := r * c
	opts := TranOpts{Step: tau / 1000, Stop: 10 * tau}

	early, err := TransientThreshold(ckt, opts, []int{out}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	optsRec := opts
	optsRec.Record = true
	full, err := TransientThreshold(ckt, optsRec, []int{out}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(early.Crossings[0]-full.Crossings[0]) > 1e-18 {
		t.Errorf("early exit crossing %.6g != full run %.6g", early.Crossings[0], full.Crossings[0])
	}
	if early.Steps >= full.Steps {
		t.Errorf("early exit ran %d steps, full run %d; expected fewer", early.Steps, full.Steps)
	}
}

func TestMaxDelay(t *testing.T) {
	if got := MaxDelay([]float64{1, 5, 3}); got != 5 {
		t.Errorf("MaxDelay = %v, want 5", got)
	}
	if got := MaxDelay(nil); got != 0 {
		t.Errorf("MaxDelay(nil) = %v, want 0", got)
	}
}

func TestRampWaveform(t *testing.T) {
	w := Ramp(0, 2, 1, 3)
	cases := []struct{ t, want float64 }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2},
	}
	for _, c := range cases {
		if got := w(c.t); math.Abs(got-c.want) > 1e-15 {
			t.Errorf("Ramp(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
