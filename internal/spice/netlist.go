package spice

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteDeck emits the circuit as a SPICE-compatible netlist (a ".cir
// deck"), so any routing evaluated by this package can be re-simulated with
// Berkeley SPICE / ngspice for external validation:
//
//   - <title>
//     R1 1 2 100
//     C1 2 0 15.3f
//     V1 3 0 PWL(0 0 1p 1)
//     .TRAN 1p 10n
//     .END
//
// A step after t=0 becomes a PWL waveform with an edge of tranStop·10⁻⁶
// (an ideal step is not expressible in SPICE). A source that is constant
// from t=0 on, a step at t=0 included, becomes DC. Any other Go waveform is
// sampled as a 64-point PWL over tranStop.
func WriteDeck(w io.Writer, c *Circuit, title string, tranStep, tranStop float64) error {
	bw := bufio.NewWriter(w)
	if title == "" {
		title = "nontree routing circuit"
	}
	fmt.Fprintf(bw, "* %s\n", title)
	fmt.Fprintf(bw, "* %d nodes (0 = ground)\n", c.numNodes)

	for i, r := range c.resistors {
		fmt.Fprintf(bw, "R%d %d %d %s\n", i+1, r.a, r.b, engNotation(r.ohms))
	}
	for i, cap := range c.capacitors {
		fmt.Fprintf(bw, "C%d %d %d %s\n", i+1, cap.a, cap.b, engNotation(cap.farads))
	}
	for i, l := range c.inductors {
		fmt.Fprintf(bw, "L%d %d %d %s\n", i+1, l.a, l.b, engNotation(l.henries))
	}
	for i, v := range c.vsources {
		fmt.Fprintf(bw, "V%d %d %d %s\n", i+1, v.pos, v.neg, waveformSpec(v.wave, tranStop))
	}
	for i, src := range c.isources {
		fmt.Fprintf(bw, "I%d %d %d %s\n", i+1, src.from, src.to, waveformSpec(src.wave, tranStop))
	}
	if tranStep > 0 && tranStop > tranStep {
		fmt.Fprintf(bw, ".TRAN %s %s\n", engNotation(tranStep), engNotation(tranStop))
	}
	fmt.Fprintln(bw, ".END")
	return bw.Flush()
}

// waveformSpec renders a source waveform as a SPICE source specification by
// probing it: constant sources become "DC v"; two-level sources become a
// sharp PWL step; anything else is sampled into a 64-point PWL.
func waveformSpec(wave Waveform, horizon float64) string {
	if horizon <= 0 {
		horizon = 1e-9
	}
	v0 := wave(0)
	vEnd := wave(horizon)
	if v0 == vEnd && wave(horizon/3) == v0 && wave(horizon/7) == v0 {
		return fmt.Sprintf("DC %s", engNotation(v0))
	}
	// Detect a clean two-level step: find the switch time by bisection.
	if isTwoLevel(wave, horizon, v0, vEnd) {
		t := stepTime(wave, horizon, v0)
		edge := horizon * 1e-6
		return fmt.Sprintf("PWL(0 %s %s %s %s %s)",
			engNotation(v0), engNotation(t), engNotation(v0),
			engNotation(t+edge), engNotation(vEnd))
	}
	// General waveform: uniform 64-point PWL sampling.
	var sb strings.Builder
	sb.WriteString("PWL(")
	const samples = 64
	for i := 0; i <= samples; i++ {
		t := horizon * float64(i) / samples
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s %s", engNotation(t), engNotation(wave(t)))
	}
	sb.WriteByte(')')
	return sb.String()
}

func isTwoLevel(wave Waveform, horizon, v0, vEnd float64) bool {
	const probes = 16
	for i := 0; i <= probes; i++ {
		v := wave(horizon * float64(i) / probes)
		if v != v0 && v != vEnd {
			return false
		}
	}
	return true
}

func stepTime(wave Waveform, horizon, v0 float64) float64 {
	lo, hi := 0.0, horizon
	for iter := 0; iter < 60 && hi-lo > 1e-18; iter++ {
		mid := (lo + hi) / 2
		if wave(mid) == v0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// engNotation renders a value with SPICE engineering suffixes
// (f p n u m k meg g), choosing the suffix that leaves a mantissa in
// [1, 1000) where possible.
func engNotation(v float64) string {
	if v == 0 {
		return "0"
	}
	type unit struct {
		scale  float64
		suffix string
	}
	units := []unit{
		{1e9, "g"}, {1e6, "meg"}, {1e3, "k"}, {1, ""},
		{1e-3, "m"}, {1e-6, "u"}, {1e-9, "n"}, {1e-12, "p"}, {1e-15, "f"},
	}
	mag := v
	if mag < 0 {
		mag = -mag
	}
	for _, u := range units {
		if mag >= u.scale {
			return trimFloat(v/u.scale) + u.suffix
		}
	}
	return trimFloat(v/1e-15) + "f"
}

func trimFloat(v float64) string {
	s := strconv.FormatFloat(v, 'g', 6, 64)
	return s
}
