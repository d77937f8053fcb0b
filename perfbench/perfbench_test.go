package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// tiny returns the three workloads with op lists small enough for tests.
func tiny() []workload {
	return []workload{
		{"route-closed", routeClients, func(seed int64) (runner, error) {
			l, err := routeClosedOps(seed, 1, 2*readEvery)
			if err != nil {
				return nil, err
			}
			return newRouteClosed(l, 4)
		}},
		{"paper-eval", 1, func(seed int64) (runner, error) {
			l, err := cellOps(seed, []int{5, 10}, paperAlgos, 1)
			if err != nil {
				return nil, err
			}
			return newCompute(l, true, 2)
		}},
		{"large-net", 1, func(seed int64) (runner, error) {
			l, err := cellOps(seed, []int{40}, []string{"ldrg"}, 2)
			if err != nil {
				return nil, err
			}
			return newCompute(l, false, 1)
		}},
	}
}

func TestOpListsArePureFunctionsOfTheSeed(t *testing.T) {
	routes := func(seed int64) routeList {
		l, err := routeClosedOps(seed, 32, 2400)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	cells := func(seed int64) cellList {
		l, err := cellOps(seed, paperSizes, paperAlgos, 36)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	if !reflect.DeepEqual(routes(5), routes(5)) {
		t.Error("route-closed: one seed gave two op lists")
	}
	if reflect.DeepEqual(routes(5), routes(6)) {
		t.Error("route-closed: seeds 5 and 6 gave the same op list")
	}
	if !reflect.DeepEqual(cells(5), cells(5)) {
		t.Error("paper-eval: one seed gave two op lists")
	}
	if reflect.DeepEqual(cells(5), cells(6)) {
		t.Error("paper-eval: seeds 5 and 6 gave the same op list")
	}
	ops := routes(5).ops
	for p := 0; p < 4; p++ {
		pos := make([]int, len(ops))
		for k, i := range passOrder(len(ops), readEvery, p) {
			pos[i] = k
		}
		for i, op := range ops {
			if op.read != "" && (pos[op.of] >= pos[i] || ops[op.of].read != "") {
				t.Fatalf("pass %d: op %d reads op %d, which is not an earlier route op", p, i, op.of)
			}
		}
	}
}

// TestTinyRunsRepeatExactly runs each tiny workload traced twice: the
// per-layer counts and the quality ratios must repeat bit for bit.
func TestTinyRunsRepeatExactly(t *testing.T) {
	for _, w := range tiny() {
		t.Run(w.name, func(t *testing.T) {
			var first map[string]metric
			var firstDelay, firstCost float64
			for run := 0; run < 2; run++ {
				r, err := w.setUp(7)
				if err != nil {
					t.Fatal(err)
				}
				search, measure := r.registries()
				s0, m0 := snapshot(search), snapshot(measure)
				tr := newTracer()
				st := replay(r, 0, tr)
				if st.failed != 0 {
					t.Fatalf("%d ops failed, the first: %v", st.failed, st.err)
				}
				m := layerMetrics(window{s0, snapshot(search)}, window{m0, snapshot(measure)}, tr, st)
				delay, cost := r.quality()
				if run == 0 {
					first, firstDelay, firstCost = m, delay, cost
					continue
				}
				for _, name := range countMetrics {
					if math.Float64bits(m[name].Value) != math.Float64bits(first[name].Value) {
						t.Errorf("%s: %v then %v", name, first[name].Value, m[name].Value)
					}
					if u := m[name].Unit; u != "1/op" && u != "ratio" {
						t.Errorf("%s has unit %q; counts are reported per op or as ratios", name, u)
					}
				}
				if math.Float64bits(delay) != math.Float64bits(firstDelay) || math.Float64bits(cost) != math.Float64bits(firstCost) {
					t.Errorf("quality %v/%v then %v/%v", firstDelay, firstCost, delay, cost)
				}
				if m["core.candidates_per_op"].Value == 0 {
					t.Error("no sweep candidates counted")
				}
			}
		})
	}
}

// plantedRouteClosed is the tiny route-closed workload with serve.Run's
// final objective for request 0 nudged by one ulp.
func plantedRouteClosed(seed int64) (runner, error) {
	l, err := routeClosedOps(seed, 1, 2*readEvery)
	if err != nil {
		return nil, err
	}
	r, err := newRouteClosed(l, 0)
	if err != nil {
		return nil, err
	}
	r.refs[0].FinalObjective = math.Nextafter(r.refs[0].FinalObjective, math.Inf(1))
	return r, nil
}

func TestPlantedReplyMismatchFailsTheRun(t *testing.T) {
	l, err := routeClosedOps(3, 1, 2*readEvery)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, op := range l.ops {
		if op.read == "" && op.req == 0 {
			want++
		}
	}
	planted := []workload{{"route-closed", routeClients, plantedRouteClosed}}
	var out bytes.Buffer
	if code := run([]string{"--workload", "route-closed", "--seed", "3", "--seconds", "0"}, planted, &out, io.Discard); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != want || res.Attempted != len(l.ops) {
		t.Errorf("correct %t, %d of %d ops failed; want %d of %d failed", res.Correct, res.Failed, res.Attempted, want, len(l.ops))
	}
	if !strings.Contains(out.String(), "final_objective") {
		t.Errorf("the report does not name the mismatch:\n%s", out.String())
	}
}

func TestPlantedRepeatMismatchFailsTheOp(t *testing.T) {
	l, err := cellOps(3, []int{10}, []string{"ldrg"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newCompute(l, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	r.refs[0].finalCost++
	if p := r.pass(0, nil); p.failed != 1 {
		t.Fatalf("%d ops failed, want 1", p.failed)
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the names the runs print and the
// names BENCHMARK.json declares the same.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	for _, d := range decl.Workloads {
		known := false
		for _, w := range workloads {
			known = known || w.name == d.Name
		}
		if !known {
			t.Errorf("BENCHMARK.json declares workload %q, which perfbench does not have", d.Name)
		}
	}

	// The traced run writes its spans under the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	w := tiny()[0]
	e2e, err := endToEnd(w, 1, 0, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	layers, err := layered(w, 1, 0, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		decl []struct{ Name, Unit string }
		got  map[string]metric
	}{{decl.EndToEnd, e2e.Metrics}, {decl.PerLayer, layers.Metrics}} {
		var want, got []string
		for _, m := range c.decl {
			want = append(want, m.Name+" "+m.Unit)
		}
		for name, m := range c.got {
			got = append(got, name+" "+m.Unit)
		}
		sort.Strings(want)
		sort.Strings(got)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("BENCHMARK.json declares %v, the run prints %v", want, got)
		}
	}
}
