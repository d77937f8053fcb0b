package spice

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"nontree/internal/linalg"
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

// referenceSystem is the dense MNA assembly the sparse one replaced: G and
// C stamped element by element with Matrix.Add, in the same order. The
// embedded system supplies the unknown layout and the source vector.
type referenceSystem struct {
	*mnaSystem
	g, c *linalg.Matrix
}

func referenceAssemble(c *Circuit) (*referenceSystem, error) {
	sys, err := assemble(c)
	if err != nil {
		return nil, err
	}
	s := &referenceSystem{mnaSystem: sys,
		g: linalg.NewMatrix(sys.size, sys.size), c: linalg.NewMatrix(sys.size, sys.size)}
	for _, r := range c.resistors {
		s.stampDense(s.g, r.a, r.b, 1/r.ohms)
	}
	for _, cap := range c.capacitors {
		s.stampDense(s.c, cap.a, cap.b, cap.farads)
	}
	for i, v := range c.vsources {
		s.stampBranchDense(v.pos, v.neg, sys.vsrcRow[i])
	}
	for i, l := range c.inductors {
		s.stampBranchDense(l.a, l.b, sys.indRow[i])
		s.c.Add(sys.indRow[i], sys.indRow[i], -l.henries)
	}
	return s, nil
}

func (s *referenceSystem) stampDense(m *linalg.Matrix, a, b int, v float64) {
	ia, ib := s.index(a), s.index(b)
	if ia >= 0 {
		m.Add(ia, ia, v)
	}
	if ib >= 0 {
		m.Add(ib, ib, v)
	}
	if ia >= 0 && ib >= 0 {
		m.Add(ia, ib, -v)
		m.Add(ib, ia, -v)
	}
}

func (s *referenceSystem) stampBranchDense(pos, neg, row int) {
	ip, in := s.index(pos), s.index(neg)
	if ip >= 0 {
		s.g.Add(ip, row, 1)
		s.g.Add(row, ip, 1)
	}
	if in >= 0 {
		s.g.Add(in, row, -1)
		s.g.Add(row, in, -1)
	}
}

func (s *referenceSystem) algebraicRows() []bool {
	out := make([]bool, s.size)
	for r := 0; r < s.size; r++ {
		algebraic := true
		for j := 0; j < s.size; j++ {
			if s.c.At(r, j) != 0 {
				algebraic = false
				break
			}
		}
		out[r] = algebraic
	}
	return out
}

// referenceDC is the dense DC solve behind FinalValue and OperatingPoint:
// dense elimination of the dense conductance matrix.
func referenceDC(c *Circuit, atTime float64) ([]float64, error) {
	sys, err := referenceAssemble(c)
	if err != nil {
		return nil, err
	}
	lu, err := factorDense(sys.g)
	if err != nil {
		return nil, err
	}
	b := make([]float64, sys.size)
	sys.rhs(b, atTime)
	x := lu.Solve(b)
	return sys.nodeVoltages(x), nil
}

// referenceTransient is the dense fixed-step integrator transient must
// reproduce bit for bit: dense history matrices and dense elimination
// (factorDense) of the dense iteration matrix.
func referenceTransient(c *Circuit, opts TranOpts, watch *thresholdWatch) (*TranResult, error) {
	if opts.Step <= 0 || opts.Stop <= opts.Step {
		return nil, fmt.Errorf("%w: step=%g stop=%g", ErrBadTranOpts, opts.Step, opts.Stop)
	}
	sys, err := referenceAssemble(c)
	if err != nil {
		return nil, err
	}
	h := opts.Step

	lhs := sys.g.Clone()
	var histC *linalg.Matrix // matrix applied to x_k on the right-hand side
	switch opts.Method {
	case BackwardEuler:
		lhs.AddScaled(sys.c, 1/h)
		histC = linalg.NewMatrix(sys.size, sys.size)
		histC.AddScaled(sys.c, 1/h) // histC = C/h
	case Trapezoidal:
		lhs.AddScaled(sys.c, 2/h)
		histC = linalg.NewMatrix(sys.size, sys.size)
		histC.AddScaled(sys.c, 2/h) // histC = 2C/h
		histC.AddScaled(sys.g, -1)  // histC = 2C/h − G
	default:
		return nil, fmt.Errorf("spice: unknown integration method %v", opts.Method)
	}
	lu, err := factorDense(lhs)
	if err != nil {
		return nil, fmt.Errorf("spice: transient matrix is singular (floating node?): %w", err)
	}

	var beLU *denseLU
	var beHist *linalg.Matrix
	if opts.Method == Trapezoidal {
		beLhs := sys.g.Clone()
		beLhs.AddScaled(sys.c, 1/h)
		beLU, err = factorDense(beLhs)
		if err != nil {
			return nil, fmt.Errorf("spice: transient matrix is singular (floating node?): %w", err)
		}
		beHist = linalg.NewMatrix(sys.size, sys.size)
		beHist.AddScaled(sys.c, 1/h)
	}

	algebraic := sys.algebraicRows()

	x := make([]float64, sys.size)
	bPrev := make([]float64, sys.size)
	bNext := make([]float64, sys.size)
	rhs := make([]float64, sys.size)
	hist := make([]float64, sys.size)
	sys.rhs(bPrev, 0)

	res := &TranResult{}
	var crossings []float64
	var prevWatch []float64
	if watch != nil {
		crossings = make([]float64, len(watch.nodes))
		for i := range crossings {
			crossings[i] = -1
		}
		prevWatch = make([]float64, len(watch.nodes))
	}

	record := func(t float64, volts []float64) {
		if !opts.Record {
			return
		}
		if res.V == nil {
			res.V = make([][]float64, c.numNodes)
		}
		res.Times = append(res.Times, t)
		for n := 0; n < c.numNodes; n++ {
			res.V[n] = append(res.V[n], volts[n])
		}
	}
	record(0, make([]float64, c.numNodes))

	steps := int(opts.Stop/h + 0.5)
	for k := 1; k <= steps; k++ {
		t := float64(k) * h
		sys.rhs(bNext, t)

		useTrap := opts.Method == Trapezoidal && k > 1
		if opts.Method == Trapezoidal && k == 1 {
			beHist.MulVecInto(hist, x)
		} else {
			histC.MulVecInto(hist, x)
		}
		for i := range rhs {
			switch {
			case useTrap && algebraic[i]:
				rhs[i] = bNext[i]
			case useTrap:
				rhs[i] = hist[i] + bPrev[i] + bNext[i]
			default:
				rhs[i] = hist[i] + bNext[i]
			}
		}
		if opts.Method == Trapezoidal && k == 1 {
			beLU.SolveInPlace(rhs)
		} else {
			lu.SolveInPlace(rhs)
		}
		copy(x, rhs)
		bPrev, bNext = bNext, bPrev

		if watch != nil {
			remaining := 0
			for i, n := range watch.nodes {
				if crossings[i] >= 0 {
					continue
				}
				remaining++
				var v float64
				if n > 0 {
					v = x[n-1]
				}
				if v >= watch.levels[i] {
					frac := 1.0
					if dv := v - prevWatch[i]; dv > 0 {
						frac = (watch.levels[i] - prevWatch[i]) / dv
					}
					crossings[i] = t - h + frac*h
					remaining--
				}
				prevWatch[i] = v
			}
			if remaining == 0 && !opts.Record {
				res.Steps = k
				final := make([]float64, c.numNodes)
				for n := 1; n < c.numNodes; n++ {
					final[n] = x[n-1]
				}
				res.Final = final
				res.Crossings = crossings
				return res, nil
			}
		}
		if opts.Record {
			volts := make([]float64, c.numNodes)
			for n := 1; n < c.numNodes; n++ {
				volts[n] = x[n-1]
			}
			record(t, volts)
		}
		res.Steps = k
	}

	final := make([]float64, c.numNodes)
	for n := 1; n < c.numNodes; n++ {
		final[n] = x[n-1]
	}
	res.Final = final
	res.Crossings = crossings
	return res, nil
}

// referenceAdaptive is the adaptive controller over dense trapezoidal steps.
func referenceAdaptive(c *Circuit, stop float64) (*TranResult, error) {
	sys, err := referenceAssemble(c)
	if err != nil {
		return nil, err
	}
	h, minStep, maxStep, tol := stop/1000, stop/1e7, stop/50, 1e-4
	algebraic := sys.algebraicRows()
	type factors struct {
		lu    *denseLU
		histC *linalg.Matrix
	}
	cache := map[float64]*factors{}
	step := func(x, out []float64, t, h float64) error {
		f, ok := cache[h]
		if !ok {
			lhs := sys.g.Clone()
			lhs.AddScaled(sys.c, 2/h)
			lu, err := factorDense(lhs)
			if err != nil {
				return fmt.Errorf("spice: adaptive factorization at h=%g: %w", h, err)
			}
			hist := linalg.NewMatrix(sys.size, sys.size)
			hist.AddScaled(sys.c, 2/h)
			hist.AddScaled(sys.g, -1)
			f = &factors{lu: lu, histC: hist}
			if len(cache) > 32 {
				cache = map[float64]*factors{}
			}
			cache[h] = f
		}
		bPrev, bNext := make([]float64, sys.size), make([]float64, sys.size)
		sys.rhs(bPrev, t)
		sys.rhs(bNext, t+h)
		rhs := f.histC.MulVec(x)
		for i := range rhs {
			if algebraic[i] {
				rhs[i] = bNext[i]
				continue
			}
			rhs[i] = rhs[i] + bPrev[i] + bNext[i]
		}
		f.lu.SolveInPlace(rhs)
		copy(out, rhs)
		return nil
	}

	x := make([]float64, sys.size)
	t := 0.0
	res := &TranResult{Times: []float64{0}, V: make([][]float64, c.numNodes)}
	record := func() {
		for n := 0; n < c.numNodes; n++ {
			var v float64
			if n > 0 {
				v = x[n-1]
			}
			res.V[n] = append(res.V[n], v)
		}
	}
	record()
	full, half, quarter := make([]float64, sys.size), make([]float64, sys.size), make([]float64, sys.size)
	for t < stop {
		if t+h > stop {
			h = stop - t
		}
		if err := step(x, full, t, h); err != nil {
			return nil, err
		}
		if err := step(x, quarter, t, h/2); err != nil {
			return nil, err
		}
		if err := step(quarter, half, t+h/2, h/2); err != nil {
			return nil, err
		}
		var lte float64
		for i := 0; i < sys.nv; i++ {
			if e := math.Abs(half[i]-full[i]) / 3; e > lte {
				lte = e
			}
		}
		if lte > tol && h > minStep {
			shrink := 0.9 * math.Sqrt(tol/math.Max(lte, 1e-300))
			if shrink < 0.1 {
				shrink = 0.1
			}
			h = math.Max(h*shrink, minStep)
			continue
		}
		if lte > tol && h <= minStep {
			return nil, fmt.Errorf("%w at t=%g (lte %g > tol %g)", ErrStepUnderflow, t, lte, tol)
		}
		copy(x, half)
		t += h
		res.Steps++
		res.Times = append(res.Times, t)
		record()
		if lte < tol/4 {
			h = math.Min(h*2, maxStep)
		}
	}
	res.Final = make([]float64, c.numNodes)
	for n := 0; n < c.numNodes; n++ {
		res.Final[n] = res.V[n][len(res.V[n])-1]
	}
	return res, nil
}

// referenceMeasureDelays is MeasureDelays over the dense references: a
// dense DC solve for the thresholds, then horizon retries of a dense
// transient, fixed-step or adaptive.
func referenceMeasureDelays(c *Circuit, watch []int, opts MeasureOpts) ([]float64, error) {
	final, err := referenceDC(c, math.MaxFloat64)
	if err != nil {
		return nil, err
	}
	levels := make([]float64, len(watch))
	for i, n := range watch {
		levels[i] = opts.ThresholdFraction * final[n]
	}
	steps := opts.StepsPerHorizon
	if steps <= 0 {
		steps = 2000
	}
	horizon := opts.InitialHorizon
	if horizon <= 0 {
		horizon = horizonEstimate(c)
	}
	maxHorizon := horizon * 1024
	for {
		crossings := make([]float64, len(watch))
		if opts.Adaptive {
			res, err := referenceAdaptive(c, horizon)
			if err != nil {
				return nil, err
			}
			for i, node := range watch {
				crossings[i] = crossing(res.Times, res.V[node], levels[i])
			}
		} else {
			res, err := referenceTransient(c, TranOpts{
				Step: horizon / float64(steps), Stop: horizon, Method: opts.Method,
			}, &thresholdWatch{nodes: watch, levels: levels})
			if err != nil {
				return nil, err
			}
			crossings = res.Crossings
		}
		if !slices.ContainsFunc(crossings, func(t float64) bool { return t < 0 }) {
			return crossings, nil
		}
		if horizon >= maxHorizon {
			return nil, fmt.Errorf("%w within %g s", ErrNoCrossing, horizon)
		}
		horizon *= 4
	}
}
