package elmore

import (
	"errors"
	"fmt"
	"math"

	"nontree/internal/graph"
	"nontree/internal/rc"
)

// This file implements moment computation and a two-pole (AWE-style) delay
// estimate for arbitrary RC routing graphs — one model rung above Elmore.
//
// With node capacitance vector c (diagonal C), grounded conductance matrix
// G (driver included) and a unit step in, every node's transfer function
// expands as H_i(s) = Σ_k m_k[i]·s^k with
//
//	m_0 = 1 (DC gain),   m_k = −G⁻¹ · (c ∘ m_{k−1})
//
// so each additional moment costs one triangular solve on the factored G.
// m_1 = −(Elmore delay). A [0/2] Padé fit 1/(1 + a1·s + a2·s²) with
// a1 = −m1, a2 = m1² − m2 yields two real negative poles for RC circuits;
// the 50% crossing of the corresponding step response is found by safe
// bisection. Where the fit degenerates (a2 ≤ 0, which can occur at nodes
// very near the driver) the estimate falls back to the single-pole value
// ln2·(Elmore).

// Moments returns the first order moments of every node's step response:
// moments[k][n] is m_k at node n, for k = 1..order (m_0 ≡ 1 is omitted).
func (c *Conductance) Moments(l *rc.Lumped, order int) ([][]float64, error) {
	if order < 1 {
		return nil, errors.New("elmore: moment order must be ≥ 1")
	}
	if len(l.NodeCap) != c.size {
		return nil, ErrSizeMismatch
	}
	moments := make([][]float64, order)
	prev := make([]float64, c.size)
	for i := range prev {
		prev[i] = 1 // m_0
	}
	for k := 0; k < order; k++ {
		rhs := make([]float64, c.size)
		for i := range rhs {
			rhs[i] = l.NodeCap[i] * prev[i]
		}
		m := c.lu.Solve(rhs)
		for i := range m {
			m[i] = -m[i]
		}
		moments[k] = m
		prev = m
	}
	return moments, nil
}

// TwoPoleDelays estimates the 50% step-response delay (s) of every node in a
// connected topology using the two-pole Padé model described above. The
// estimates track the transient simulator considerably more closely than
// ln2·Elmore, at the cost of one extra linear solve.
func TwoPoleDelays(t *graph.Topology, l *rc.Lumped) ([]float64, error) {
	cond, err := FactorConductance(t, l)
	if err != nil {
		return nil, err
	}
	return cond.TwoPoleDelays(l)
}

// TwoPoleDelays is the factored-matrix form of the package-level function.
func (c *Conductance) TwoPoleDelays(l *rc.Lumped) ([]float64, error) {
	moments, err := c.Moments(l, 2)
	if err != nil {
		return nil, err
	}
	m1, m2 := moments[0], moments[1]
	delays := make([]float64, c.size)
	for n := range delays {
		delays[n] = twoPoleFiftyPercent(m1[n], m2[n])
	}
	return delays, nil
}

// twoPoleFiftyPercent returns the 50% crossing (s) of the two-pole step
// response fitted to the moments m1 (s) and m2 (s²), falling back to
// ln2·|m1| when the fit is unusable.
func twoPoleFiftyPercent(m1, m2 float64) float64 {
	elmore := -m1
	if elmore <= 0 {
		return 0
	}
	fallback := math.Ln2 * elmore

	a1 := -m1
	a2 := m1*m1 - m2
	if a2 <= 0 {
		return fallback
	}
	disc := a1*a1 - 4*a2
	if disc < 0 {
		// Complex poles cannot arise from a passive RC network's true
		// response; a Padé artifact. Fall back.
		return fallback
	}
	sq := math.Sqrt(disc)
	// Roots of a2 s² + a1 s + 1: both real negative.
	s1 := (-a1 + sq) / (2 * a2)
	s2 := (-a1 - sq) / (2 * a2)
	if s1 >= 0 || s2 >= 0 {
		return fallback
	}
	var y func(t float64) float64
	//nontree:allow floatcmp guards the exact zero divisor s1-s2 in the partial-fraction branch; both poles derive from one expression, so equality is reproducible
	if s1 == s2 {
		// Repeated pole: y(t) = 1 − (1 − s1·t)·e^{s1 t}.
		y = func(t float64) float64 {
			return 1 - (1-s1*t)*math.Exp(s1*t)
		}
	} else {
		// Partial fractions of H(s)/s with H = 1/(a2(s−s1)(s−s2)):
		// y(t) = 1 + A·e^{s1 t} + B·e^{s2 t}.
		a := 1 / (a2 * s1 * (s1 - s2))
		b := 1 / (a2 * s2 * (s2 - s1))
		y = func(t float64) float64 {
			return 1 + a*math.Exp(s1*t) + b*math.Exp(s2*t)
		}
	}

	// Bracket the 50% crossing: the response is monotone for real
	// negative poles with this pole/residue structure.
	lo, hi := 0.0, fallback
	for iter := 0; y(hi) < 0.5; iter++ {
		hi *= 2
		if iter > 60 {
			return fallback
		}
	}
	for iter := 0; iter < 80 && hi-lo > 1e-18*hi; iter++ {
		mid := (lo + hi) / 2
		if y(mid) < 0.5 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// DelayModel names an analytic delay model for reports and ablations.
type DelayModel int

const (
	// ModelElmoreLn2 is the classical single-pole estimate ln2·t_ED.
	ModelElmoreLn2 DelayModel = iota
	// ModelElmoreRaw is the raw first moment t_ED (an upper-bound flavour).
	ModelElmoreRaw
	// ModelTwoPole is the two-pole Padé estimate.
	ModelTwoPole
)

// String names the model.
func (m DelayModel) String() string {
	switch m {
	case ModelElmoreLn2:
		return "elmore-ln2"
	case ModelElmoreRaw:
		return "elmore-raw"
	case ModelTwoPole:
		return "two-pole"
	}
	return fmt.Sprintf("DelayModel(%d)", int(m))
}

// EstimateDelays evaluates the chosen analytic model on a topology and
// returns its delays (s).
func EstimateDelays(t *graph.Topology, l *rc.Lumped, model DelayModel) ([]float64, error) {
	switch model {
	case ModelTwoPole:
		return TwoPoleDelays(t, l)
	case ModelElmoreRaw:
		return GraphDelays(t, l)
	case ModelElmoreLn2:
		d, err := GraphDelays(t, l)
		if err != nil {
			return nil, err
		}
		for i := range d {
			d[i] *= math.Ln2
		}
		return d, nil
	}
	return nil, fmt.Errorf("elmore: unknown delay model %v", model)
}
