package serve

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"nontree/internal/geom"
	"nontree/internal/netlist"
)

// TestValidatedNetsRoute is the property behind netlist.Validate's
// near-coincidence check: every net it accepts routes under every
// algorithm without an error. The nets are the paper's random nets with
// one pin moved next to another, at an offset drawn from 1e-300 to 1e3
// µm, or translated to x = y = 1e15, or with one pin moved out to
// x = 1e15, and combinations of these. Offsets at most 1e-9 of the net's
// extent, 1e-300 among them, must be rejected as near-coincident; before
// the check such nets validated and then failed every algorithm with a
// singular conductance matrix.
func TestValidatedNetsRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	algos := []string{AlgoLDRG, AlgoSLDRG, AlgoTaps, AlgoH1, AlgoH2, AlgoH3}
	counts := map[string]int{}
	for trial := 0; trial < 120; trial++ {
		net := testNet(t, int64(3500+trial), 4+rng.Intn(7))
		pins := net.Pins
		offset := 0.0
		if trial%4 != 3 {
			j, k := rng.Intn(len(pins)), rng.Intn(len(pins)-1)
			if k >= j {
				k++
			}
			offset = math.Pow(10, float64(-300+rng.Intn(304)))
			if trial%2 == 0 {
				pins[k] = geom.Pt(pins[j].X+offset, pins[j].Y)
			} else {
				pins[k] = geom.Pt(pins[j].X, pins[j].Y-offset)
			}
		}
		switch trial % 3 {
		case 1:
			for i := range pins {
				pins[i] = geom.Pt(pins[i].X+1e15, pins[i].Y+1e15)
			}
		case 2:
			pins[len(pins)-1].X = 1e15
		}
		box := net.BoundingBox()
		extent := max(box.Width(), box.Height())
		closest := math.Inf(1)
		for i := range pins {
			for j := range pins[:i] {
				closest = min(closest, geom.Dist(pins[i], pins[j]))
			}
		}
		err := net.Validate()
		switch near := closest <= 1e-9*extent; {
		case err == nil && !near:
			counts["accepted"]++
		case err != nil && near && (errors.Is(err, netlist.ErrNearPins) || errors.Is(err, netlist.ErrDuplicatePins)):
			counts["rejected"]++
			continue
		default:
			t.Fatalf("trial %d: closest pins %g µm apart in a %g µm extent, Validate %v", trial, closest, extent, err)
		}
		for _, algo := range algos {
			if _, err := Run(net, RouteOptions{Algo: algo}, nil, nil); err != nil {
				t.Errorf("trial %d (%s, offset %g µm, extent %g µm): a validated net fails: %v", trial, algo, offset, extent, err)
			}
		}
	}
	if counts["accepted"] == 0 || counts["rejected"] == 0 {
		t.Fatalf("nets by verdict %v: the generator must produce both", counts)
	}

	// The 1e-300 case of the report that added the check, and every
	// offset at most 1e-9 of the extent, are rejected.
	for _, pins := range [][]geom.Point{
		{{X: 0, Y: 0}, {X: 1e-300, Y: 0}, {X: 5, Y: 5}},
		{{X: 0, Y: 0}, {X: 1e15, Y: 0}, {X: 1e15 + 0.125, Y: 0}},
		{{X: 0, Y: 0}, {X: 1e4, Y: 1e4}, {X: 5e3, Y: 5e3 + 5e-6}, {X: 5e3, Y: 5e3}},
	} {
		if err := (&netlist.Net{Pins: pins}).Validate(); !errors.Is(err, netlist.ErrNearPins) {
			t.Errorf("%v: Validate %v, want %v", pins, err, netlist.ErrNearPins)
		}
	}
}
