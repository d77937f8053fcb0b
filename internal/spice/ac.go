package spice

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"nontree/internal/linalg"
)

// AC (frequency-domain) analysis: solve (G + jωC)·X = B at each frequency.
// For the routing circuits in this repository — driven by a single source —
// ACResponse gives each node's transfer function magnitude and phase, and
// Bandwidth3dB extracts the -3dB point, tying the time-domain delays to
// their frequency-domain counterparts (for a single pole,
// f₃dB ≈ 0.35 / t₁₀₋₉₀).

// ACPoint is one node's response at one frequency.
type ACPoint struct {
	// FrequencyHz is the analysis frequency.
	FrequencyHz float64
	// Magnitude is |V(node)/V(source amplitude)|.
	//
	//nontree:unit 1
	Magnitude float64
	// PhaseRad is the response phase in radians.
	PhaseRad float64
}

// ACResponse sweeps the circuit at the given frequencies (Hz) with every
// voltage source replaced by a unit AC source and every current source by
// a unit AC current, returning per-frequency responses of the watched node.
func ACResponse(c *Circuit, node int, freqsHz []float64) ([]ACPoint, error) {
	if node <= 0 || node >= c.NumNodes() {
		return nil, fmt.Errorf("spice: AC node %d out of range", node)
	}
	if len(freqsHz) == 0 {
		return nil, errors.New("spice: no AC frequencies given")
	}
	sys, err := assemble(c)
	if err != nil {
		return nil, err
	}
	// Unit-amplitude excitation vector (phasor domain).
	b := make([]complex128, sys.size)
	for i := range sys.vsrcRow {
		b[sys.vsrcRow[i]] = 1
	}
	for _, src := range c.isources {
		ifrom, ito := sys.index(src.from), sys.index(src.to)
		if ifrom >= 0 {
			b[ifrom] -= 1
		}
		if ito >= 0 {
			b[ito] += 1
		}
	}

	// Expand once per call; each frequency only combines the two.
	g, cm := sys.g.Dense(), sys.c.Dense()
	out := make([]ACPoint, 0, len(freqsHz))
	for _, f := range freqsHz {
		if f < 0 {
			return nil, fmt.Errorf("spice: negative AC frequency %g", f)
		}
		s := complex(0, 2*math.Pi*f)
		m, err := linalg.FromRealPair(g, cm, s)
		if err != nil {
			return nil, err
		}
		lu, err := linalg.FactorComplex(m)
		if err != nil {
			return nil, fmt.Errorf("spice: AC solve at %g Hz: %w", f, err)
		}
		x := lu.Solve(b)
		v := x[node-1]
		out = append(out, ACPoint{
			FrequencyHz: f,
			Magnitude:   cmplx.Abs(v),
			PhaseRad:    cmplx.Phase(v),
		})
	}
	return out, nil
}

// Bandwidth3dB returns the frequency at which the node's response magnitude
// first falls to 1/√2 of its DC value, found by bisection between fLo and
// fHi (the response must be above the threshold at fLo and below at fHi).
//
//nontree:unit fLo Hz
//nontree:unit fHi Hz
//nontree:unit return Hz
func Bandwidth3dB(c *Circuit, node int, fLo, fHi float64) (float64, error) {
	if fLo <= 0 || fHi <= fLo {
		return 0, fmt.Errorf("spice: bandwidth bracket [%g, %g] invalid", fLo, fHi)
	}
	dc, err := ACResponse(c, node, []float64{0})
	if err != nil {
		return 0, err
	}
	threshold := dc[0].Magnitude / math.Sqrt2

	magAt := func(f float64) (float64, error) {
		r, err := ACResponse(c, node, []float64{f})
		if err != nil {
			return 0, err
		}
		return r[0].Magnitude, nil
	}
	lo, err := magAt(fLo)
	if err != nil {
		return 0, err
	}
	hi, err := magAt(fHi)
	if err != nil {
		return 0, err
	}
	if lo < threshold || hi > threshold {
		return 0, fmt.Errorf("spice: -3dB point not bracketed by [%g, %g] Hz", fLo, fHi)
	}
	// Bisect in log-frequency for uniform resolution across decades.
	lgLo, lgHi := math.Log(fLo), math.Log(fHi)
	for iter := 0; iter < 60; iter++ {
		mid := math.Exp((lgLo + lgHi) / 2)
		m, err := magAt(mid)
		if err != nil {
			return 0, err
		}
		if m > threshold {
			lgLo = math.Log(mid)
		} else {
			lgHi = math.Log(mid)
		}
	}
	return math.Exp((lgLo + lgHi) / 2), nil
}

// LogSpace returns n frequencies logarithmically spaced across
// [fLo, fHi] — the standard AC sweep grid.
//
//nontree:unit fLo Hz
//nontree:unit fHi Hz
//nontree:unit return Hz
func LogSpace(fLo, fHi float64, n int) []float64 {
	if n < 2 || fLo <= 0 || fHi <= fLo {
		return nil
	}
	out := make([]float64, n)
	lgLo, lgHi := math.Log10(fLo), math.Log10(fHi)
	for i := range out {
		out[i] = math.Pow(10, lgLo+(lgHi-lgLo)*float64(i)/float64(n-1))
	}
	return out
}
