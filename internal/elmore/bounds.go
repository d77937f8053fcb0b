package elmore

import (
	"fmt"
	"math"

	"nontree/internal/graph"
	"nontree/internal/rc"
)

// Delay bounds for RC networks, in the spirit of the Rubinstein–Penfield–
// Horowitz analysis the paper's delay modelling builds on ("a high-quality,
// algorithmically tractable model of interconnect delay, based on an upper
// bound [19] for Elmore delay").
//
// For any node of a grounded RC network driven by a unit step, the
// complement f(t) = 1 − v(t) is completely monotone: f(t) = E[e^{−t/U}]
// for a random time constant U ≥ 0 with
//
//	E[U]  = t_ED      (the node's Elmore delay, our first moment m1)
//	E[U²] = |m2|      (the second moment, see Moments)
//
// Two unconditional bounds on the crossing time t_x (when v first reaches
// fraction x) follow:
//
//	Upper (Markov): f is decreasing with ∫₀^∞ f = E[U], so
//	    t_x·(1 − x) ≤ ∫₀^{t_x} f ≤ E[U]   ⇒   t_x ≤ t_ED / (1 − x).
//
//	Lower (Paley–Zygmund): for any θ ∈ (0,1),
//	    f(t) ≥ e^{−t/(θ·E[U])} · P(U ≥ θ·E[U])
//	         ≥ e^{−t/(θ·E[U])} · (1−θ)²·E[U]²/E[U²],
//	so v(t) < x (i.e. t < t_x) whenever the right side exceeds 1 − x:
//	    t_x ≥ max over θ of  θ·t_ED · ln( (1−θ)²·t_ED² / ((1−x)·E[U²]) ),
//	clamped at 0 when the logarithm is not positive (the bound can be
//	vacuous for strongly multi-pole nodes, but never wrong).
//
// Both directions are property-tested against the transient simulator.

// DelayBounds holds per-node rigorous bounds on the x-crossing time.
type DelayBounds struct {
	// Lower and Upper bracket the crossing time (seconds) per node.
	// Lower may be 0 where the Paley–Zygmund bound is vacuous.
	Lower, Upper []float64
	// Fraction is the threshold fraction x the bounds apply to.
	Fraction float64
}

// Bounds computes rigorous crossing-time bounds for every node of a
// connected topology at threshold fraction x ∈ (0, 1).
func Bounds(t *graph.Topology, l *rc.Lumped, x float64) (*DelayBounds, error) {
	if x <= 0 || x >= 1 {
		return nil, fmt.Errorf("elmore: threshold fraction %g outside (0,1)", x)
	}
	cond := conductances.Get()
	defer conductances.Put(cond)
	if err := cond.Factor(t, l); err != nil {
		return nil, err
	}
	moments, err := cond.Moments(l, 2)
	if err != nil {
		return nil, err
	}
	b := &DelayBounds{
		Lower:    make([]float64, cond.size),
		Upper:    make([]float64, cond.size),
		Fraction: x,
	}
	for n := 0; n < cond.size; n++ {
		eu := -moments[0][n]           // E[U] = Elmore delay
		eu2 := math.Abs(moments[1][n]) // E[U²]
		if eu <= 0 {
			continue // source-like node with zero delay
		}
		b.Upper[n] = eu / (1 - x)
		b.Lower[n] = paleyZygmundLower(eu, eu2, x)
	}
	return b, nil
}

// paleyZygmundLower maximizes θ·E[U]·ln((1−θ)²·E[U]²/((1−x)·E[U²])) over a
// θ grid, clamped at zero. eu = E[U] is in s, eu2 = E[U²] in s², the
// fraction x is dimensionless and the bound is in s.
func paleyZygmundLower(eu, eu2, x float64) float64 {
	if eu2 <= 0 {
		return 0
	}
	base := eu * eu / ((1 - x) * eu2)
	best := 0.0
	for theta := 0.05; theta < 1; theta += 0.05 {
		arg := (1 - theta) * (1 - theta) * base
		if arg <= 1 {
			continue
		}
		if v := theta * eu * math.Log(arg); v > best {
			best = v
		}
	}
	return best
}

// Contains reports whether the measured delay (s) of node n is consistent with
// the bounds (used as a cross-check between the analytic models and the
// simulator).
func (b *DelayBounds) Contains(n int, measured float64) bool {
	return measured >= b.Lower[n]-1e-18 && measured <= b.Upper[n]+1e-18
}
