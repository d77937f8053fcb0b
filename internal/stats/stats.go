// Package stats aggregates per-net trial outcomes into the statistics the
// paper's tables report: average delay and cost ratios over all cases,
// percentage of winners, and winners-only averages.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
)

// WinEpsilon is the relative delay improvement below which a trial is not
// counted as a winner — guarding the "Percent Winners" statistic against
// floating-point noise.
const WinEpsilon = 1e-9

// Sample is one trial's outcome: the algorithm's delay and cost normalized
// to the baseline construction (MST, Steiner tree, or ERT depending on the
// table).
type Sample struct {
	DelayRatio float64
	CostRatio  float64
}

// Won reports whether the sample improved on the baseline delay.
func (s Sample) Won() bool { return s.DelayRatio < 1-WinEpsilon }

// Summary mirrors one row of the paper's tables.
type Summary struct {
	// Count is the number of trials aggregated.
	Count int
	// AllDelay and AllCost are mean ratios over every trial ("All Cases").
	AllDelay, AllCost float64
	// PercentWinners is the percentage of trials with improved delay.
	PercentWinners float64
	// WinDelay and WinCost are mean ratios over winning trials only
	// ("Winners Only"); NaN when there are no winners.
	WinDelay, WinCost float64
}

// Summarize aggregates samples into a Summary.
func Summarize(samples []Sample) Summary {
	var s Summary
	s.Count = len(samples)
	if s.Count == 0 {
		s.WinDelay, s.WinCost = math.NaN(), math.NaN()
		return s
	}
	var winDelay, winCost float64
	wins := 0
	for _, sm := range samples {
		s.AllDelay += sm.DelayRatio
		s.AllCost += sm.CostRatio
		if sm.Won() {
			wins++
			winDelay += sm.DelayRatio
			winCost += sm.CostRatio
		}
	}
	n := float64(s.Count)
	s.AllDelay /= n
	s.AllCost /= n
	s.PercentWinners = 100 * float64(wins) / n
	if wins > 0 {
		s.WinDelay = winDelay / float64(wins)
		s.WinCost = winCost / float64(wins)
	} else {
		s.WinDelay, s.WinCost = math.NaN(), math.NaN()
	}
	return s
}

// MarshalJSON encodes the summary with the winners-only fields as null
// when there are no winners (encoding/json rejects NaN).
func (s Summary) MarshalJSON() ([]byte, error) {
	type out struct {
		Count          int      `json:"count"`
		AllDelay       float64  `json:"all_delay"`
		AllCost        float64  `json:"all_cost"`
		PercentWinners float64  `json:"percent_winners"`
		WinDelay       *float64 `json:"win_delay"`
		WinCost        *float64 `json:"win_cost"`
	}
	o := out{
		Count:          s.Count,
		AllDelay:       s.AllDelay,
		AllCost:        s.AllCost,
		PercentWinners: s.PercentWinners,
	}
	if !math.IsNaN(s.WinDelay) {
		v := s.WinDelay
		o.WinDelay = &v
	}
	if !math.IsNaN(s.WinCost) {
		v := s.WinCost
		o.WinCost = &v
	}
	return json.Marshal(o)
}

// UnmarshalJSON is the inverse of MarshalJSON; null winners-only fields
// decode to NaN.
func (s *Summary) UnmarshalJSON(data []byte) error {
	var o struct {
		Count          int      `json:"count"`
		AllDelay       float64  `json:"all_delay"`
		AllCost        float64  `json:"all_cost"`
		PercentWinners float64  `json:"percent_winners"`
		WinDelay       *float64 `json:"win_delay"`
		WinCost        *float64 `json:"win_cost"`
	}
	if err := json.Unmarshal(data, &o); err != nil {
		return err
	}
	s.Count = o.Count
	s.AllDelay = o.AllDelay
	s.AllCost = o.AllCost
	s.PercentWinners = o.PercentWinners
	s.WinDelay, s.WinCost = math.NaN(), math.NaN()
	if o.WinDelay != nil {
		s.WinDelay = *o.WinDelay
	}
	if o.WinCost != nil {
		s.WinCost = *o.WinCost
	}
	return nil
}

// Mean returns the arithmetic mean of xs (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// SpearmanRank returns Spearman's rank correlation coefficient between xs
// and ys — the "fidelity" statistic: how well one delay model's ranking of
// routing candidates predicts another's. Ties receive fractional (average)
// ranks. Returns NaN for fewer than two points or zero rank variance.
func SpearmanRank(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	rx := ranks(xs)
	ry := ranks(ys)
	mx, my := Mean(rx), Mean(ry)
	var num, dx2, dy2 float64
	for i := range rx {
		dx := rx[i] - mx
		dy := ry[i] - my
		num += dx * dy
		dx2 += dx * dx
		dy2 += dy * dy
	}
	if dx2 == 0 || dy2 == 0 {
		return math.NaN()
	}
	return num / math.Sqrt(dx2*dy2)
}

// ranks assigns 1-based average ranks, handling ties.
func ranks(xs []float64) []float64 {
	type iv struct {
		idx int
		v   float64
	}
	order := make([]iv, len(xs))
	for i, v := range xs {
		order[i] = iv{i, v}
	}
	// Insertion sort by value (candidate lists are small).
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && order[j].v < order[j-1].v; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	out := make([]float64, len(xs))
	for i := 0; i < len(order); {
		j := i
		for j < len(order) && order[j].v == order[i].v {
			j++
		}
		avg := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			out[order[k].idx] = avg
		}
		i = j
	}
	return out
}

// fmtRatio renders a ratio like the paper (two decimals), or NA for NaN.
func fmtRatio(v float64) string {
	if math.IsNaN(v) {
		return "NA"
	}
	return fmt.Sprintf("%.2f", v)
}

// fmtPercent renders a winner percentage (whole number), or NA for NaN.
func fmtPercent(v float64) string {
	if math.IsNaN(v) {
		return "NA"
	}
	return fmt.Sprintf("%.0f", v)
}

// Row renders a Summary as one table row in the paper's column order:
// size | All Delay | All Cost | %Winners | Win Delay | Win Cost.
func (s Summary) Row(label string) string {
	return fmt.Sprintf("%6s | %8s %8s | %8s | %8s %8s",
		label, fmtRatio(s.AllDelay), fmtRatio(s.AllCost),
		fmtPercent(s.PercentWinners), fmtRatio(s.WinDelay), fmtRatio(s.WinCost))
}

// Header returns the column header matching Row.
func Header() string {
	h := fmt.Sprintf("%6s | %8s %8s | %8s | %8s %8s",
		"size", "Delay", "Cost", "%Win", "WinDelay", "WinCost")
	return h + "\n" + strings.Repeat("-", len(h))
}
