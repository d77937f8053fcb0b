package spice

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
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
// A flat waveform becomes DC. A step becomes a PWL waveform that holds V0
// until T0 and reaches V1 an edge of tranStop·10⁻⁶ later (an ideal step is
// not expressible in SPICE); a step at or before t=0 starts from V0 at t=0,
// so the external transient shows the step response.
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

// waveformSpec renders a source waveform as a SPICE source specification:
// "DC v" when it is flat, otherwise a PWL step.
func waveformSpec(wave Waveform, horizon float64) string {
	if wave.V0 == wave.V1 {
		return fmt.Sprintf("DC %s", engNotation(wave.V1))
	}
	if horizon <= 0 {
		horizon = 1e-9
	}
	edge := horizon * 1e-6
	if wave.T0 <= 0 {
		return fmt.Sprintf("PWL(0 %s %s %s)", engNotation(wave.V0), engNotation(edge), engNotation(wave.V1))
	}
	return fmt.Sprintf("PWL(0 %s %s %s %s %s)",
		engNotation(wave.V0), engNotation(wave.T0), engNotation(wave.V0),
		engNotation(wave.T0+edge), engNotation(wave.V1))
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
