package stats

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeMatchesPaperAccounting(t *testing.T) {
	// Three winners of delay 0.8 and one loser at 1.0:
	// all-cases delay = 0.85, winners = 75%, winners-only delay = 0.8.
	samples := []Sample{
		{DelayRatio: 0.8, CostRatio: 1.2},
		{DelayRatio: 0.8, CostRatio: 1.4},
		{DelayRatio: 0.8, CostRatio: 1.0},
		{DelayRatio: 1.0, CostRatio: 1.0},
	}
	s := Summarize(samples)
	if s.Count != 4 {
		t.Errorf("count = %d", s.Count)
	}
	if math.Abs(s.AllDelay-0.85) > 1e-12 {
		t.Errorf("AllDelay = %v", s.AllDelay)
	}
	if math.Abs(s.AllCost-1.15) > 1e-12 {
		t.Errorf("AllCost = %v", s.AllCost)
	}
	if s.PercentWinners != 75 {
		t.Errorf("PercentWinners = %v", s.PercentWinners)
	}
	if math.Abs(s.WinDelay-0.8) > 1e-12 {
		t.Errorf("WinDelay = %v", s.WinDelay)
	}
	if math.Abs(s.WinCost-1.2) > 1e-12 {
		t.Errorf("WinCost = %v", s.WinCost)
	}
}

func TestSummarizeNoWinners(t *testing.T) {
	s := Summarize([]Sample{{DelayRatio: 1.0, CostRatio: 1.0}, {DelayRatio: 1.3, CostRatio: 1.5}})
	if s.PercentWinners != 0 {
		t.Errorf("PercentWinners = %v", s.PercentWinners)
	}
	if !math.IsNaN(s.WinDelay) || !math.IsNaN(s.WinCost) {
		t.Error("winners-only stats must be NaN when nobody wins")
	}
	// The row must render NA for the NaN columns.
	row := s.Row("5")
	if !strings.Contains(row, "NA") {
		t.Errorf("row = %q, want NA columns", row)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Count != 0 || !math.IsNaN(s.WinDelay) {
		t.Errorf("empty summary: %+v", s)
	}
}

func TestWinEpsilonGuardsNoise(t *testing.T) {
	// A delay ratio within epsilon of 1.0 is not a win.
	if (Sample{DelayRatio: 1 - WinEpsilon/2}).Won() {
		t.Error("sub-epsilon improvement counted as win")
	}
	if !(Sample{DelayRatio: 0.999}).Won() {
		t.Error("real improvement not counted")
	}
	if (Sample{DelayRatio: 1.001}).Won() {
		t.Error("regression counted as win")
	}
}

func TestMean(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("mean = %v", m)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("empty input must give NaN")
	}
}

func TestSummaryBoundsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]Sample, 0, len(raw))
		for _, r := range raw {
			v := math.Abs(r)
			// Keep only physically plausible ratios; extreme magnitudes
			// would overflow the mean and test nothing useful.
			if math.IsNaN(v) || v < 1e-6 || v > 1e6 {
				continue
			}
			samples = append(samples, Sample{DelayRatio: v, CostRatio: v})
		}
		if len(samples) == 0 {
			return true
		}
		s := Summarize(samples)
		if s.PercentWinners < 0 || s.PercentWinners > 100 {
			return false
		}
		// All-cases mean lies within [min, max] of the ratios.
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, sm := range samples {
			lo = math.Min(lo, sm.DelayRatio)
			hi = math.Max(hi, sm.DelayRatio)
		}
		return s.AllDelay >= lo-1e-9 && s.AllDelay <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSpearmanPerfectCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{10, 20, 30, 40, 50}
	if r := SpearmanRank(xs, ys); math.Abs(r-1) > 1e-12 {
		t.Errorf("monotone map must give ρ=1, got %v", r)
	}
	// Any monotone transform preserves ρ=1.
	ys2 := []float64{1, 8, 27, 64, 125}
	if r := SpearmanRank(xs, ys2); math.Abs(r-1) > 1e-12 {
		t.Errorf("cubic map must give ρ=1, got %v", r)
	}
}

func TestSpearmanAnticorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{4, 3, 2, 1}
	if r := SpearmanRank(xs, ys); math.Abs(r+1) > 1e-12 {
		t.Errorf("reversed ranks must give ρ=-1, got %v", r)
	}
}

func TestSpearmanTies(t *testing.T) {
	// Known value: xs = 1,2,3,4 vs ys = 1,1,2,2 → ρ = 0.894427...
	xs := []float64{1, 2, 3, 4}
	ys := []float64{1, 1, 2, 2}
	if r := SpearmanRank(xs, ys); math.Abs(r-0.8944271909999159) > 1e-9 {
		t.Errorf("tied ρ = %v", r)
	}
}

func TestSpearmanDegenerate(t *testing.T) {
	if !math.IsNaN(SpearmanRank([]float64{1}, []float64{1})) {
		t.Error("single point must be NaN")
	}
	if !math.IsNaN(SpearmanRank([]float64{1, 2}, []float64{1})) {
		t.Error("length mismatch must be NaN")
	}
	if !math.IsNaN(SpearmanRank([]float64{1, 2, 3}, []float64{5, 5, 5})) {
		t.Error("constant series must be NaN")
	}
}

func TestSummaryJSONRoundTrip(t *testing.T) {
	orig := Summarize([]Sample{
		{DelayRatio: 0.8, CostRatio: 1.2},
		{DelayRatio: 1.1, CostRatio: 1.0},
	})
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back Summary
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Count != orig.Count || back.AllDelay != orig.AllDelay ||
		back.PercentWinners != orig.PercentWinners || back.WinDelay != orig.WinDelay {
		t.Errorf("round trip: %+v vs %+v", back, orig)
	}
}

func TestSummaryJSONHandlesNaN(t *testing.T) {
	// No winners → NaN winners-only fields → JSON null, not an error.
	orig := Summarize([]Sample{{DelayRatio: 1.5, CostRatio: 1.5}})
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatalf("NaN summary must marshal: %v", err)
	}
	if !strings.Contains(string(data), `"win_delay":null`) {
		t.Errorf("expected null winners field: %s", data)
	}
	var back Summary
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(back.WinDelay) || !math.IsNaN(back.WinCost) {
		t.Error("null must decode to NaN")
	}
}

func TestHeaderAndRowAlign(t *testing.T) {
	header := Header()
	lines := strings.Split(header, "\n")
	if len(lines) != 2 {
		t.Fatalf("header lines: %d", len(lines))
	}
	row := Summarize([]Sample{{DelayRatio: 0.5, CostRatio: 1.5}}).Row("30")
	if len(row) != len(lines[0]) {
		t.Errorf("row width %d vs header %d:\n%s\n%s", len(row), len(lines[0]), lines[0], row)
	}
}
