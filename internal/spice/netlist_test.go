package spice

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestEngNotationRoundTripProperty(t *testing.T) {
	f := func(raw float64) bool {
		v := math.Abs(raw)
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 1e-18 || v > 1e12 {
			return true // outside the electrical range the notation targets
		}
		back, err := parseEngNotation(engNotation(v))
		if err != nil {
			return false
		}
		return math.Abs(back-v) <= 1e-5*v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// parseEngNotation inverts engNotation: a Go float followed by one of the
// suffixes it emits.
func parseEngNotation(s string) (float64, error) {
	for _, u := range []struct {
		suffix string
		scale  float64
	}{
		{"meg", 1e6}, {"g", 1e9}, {"k", 1e3}, {"m", 1e-3},
		{"u", 1e-6}, {"n", 1e-9}, {"p", 1e-12}, {"f", 1e-15},
	} {
		if mantissa, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(mantissa, 64)
			return v * u.scale, err
		}
	}
	return strconv.ParseFloat(s, 64)
}

func TestWaveformSpecDC(t *testing.T) {
	if got := waveformSpec(DC(2.5), 1e-9); got != "DC 2.5" {
		t.Errorf("DC spec = %q", got)
	}
}

// TestWaveformSpecStepDetected pins the exact PWL of a step: it holds V0
// until T0 and reaches V1 an edge of horizon·10⁻⁶ later, and a step at t=0
// starts from V0 rather than collapsing to its final DC level.
func TestWaveformSpecStepDetected(t *testing.T) {
	for _, tc := range []struct {
		wave Waveform
		want string
	}{
		{Step(0, 1, 0.5e-9), "PWL(0 0 500p 0 500.002p 1)"},
		{Step(0, 1, 0), "PWL(0 0 2f 1)"},
		{Step(0.2, 1.8, 0), "PWL(0 200m 2f 1.8)"},
	} {
		if got := waveformSpec(tc.wave, 2e-9); got != tc.want {
			t.Errorf("waveformSpec(%+v) = %q, want %q", tc.wave, got, tc.want)
		}
	}
}
