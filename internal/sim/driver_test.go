package sim

import (
	"errors"
	"math"
	"net/http"
	"strings"
	"testing"

	"nontree/internal/obs"
	"nontree/internal/serve"
)

// testWorkload generates a small, fast stream: few keys, 3-pin nets, the
// cheap h1 heuristic.
func testWorkload(t *testing.T, requests int) *Workload {
	t.Helper()
	w, err := Generate(WorkloadSpec{
		Seed:     7,
		Requests: requests,
		QPS:      1e6, // effectively unpaced in open-loop tests
		Keys:     4,
		PinMix:   []PinMix{{Pins: 3, Weight: 1}},
		Algo:     serve.AlgoH1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// driveInProcess runs a hermetic drive against a fresh server.
func driveInProcess(t *testing.T, w *Workload, opts DriveOptions) (*serve.Server, *Report) {
	t.Helper()
	srv := serve.New(serve.Options{MaxConcurrent: 4})
	opts.Transport = srv.InProcessTransport()
	report, err := Drive(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	return srv, report
}

// TestDriveClosedLoop is the happy path: every request succeeds and the
// client-side accounting is internally consistent.
func TestDriveClosedLoop(t *testing.T) {
	w := testWorkload(t, 24)
	reg := obs.NewRegistry()
	obs.PreregisterSim(reg)
	srv, report := driveInProcess(t, w, DriveOptions{Concurrency: 2, Metrics: reg})

	tot := report.Totals
	if tot.Requests != 24 || tot.OK != 24 || tot.Shed != 0 || tot.Errors != 0 {
		t.Fatalf("totals = %+v, want 24 clean successes", tot)
	}
	if tot.StatusCounts["200"] != 24 {
		t.Fatalf("status counts = %v, want 24×200", tot.StatusCounts)
	}
	if report.LatencyHistogram.Count != 24 {
		t.Fatalf("latency histogram holds %d samples, want 24", report.LatencyHistogram.Count)
	}
	if tot.Latency.Count != 24 || tot.Latency.P99 < tot.Latency.P50 {
		t.Fatalf("latency summary inconsistent: %+v", tot.Latency)
	}
	if tot.ThroughputQPS <= 0 || tot.WallSeconds <= 0 {
		t.Fatalf("throughput/wall not reported: %+v", tot)
	}
	snap := reg.Snapshot()
	if snap.Counters[obs.CtrSimRequests] != 24 || snap.Counters[obs.CtrSimOK] != 24 {
		t.Fatalf("sim counters not recorded: %v", snap.Counters)
	}
	if got := srv.Metrics().Snapshot().Counters[obs.CtrRouteRequests]; got != 24 {
		t.Fatalf("server saw %d route requests, want 24", got)
	}

	// The daemon's per-phase latency attribution lands in the report: all
	// 24 replies carried a breakdown, and the phase means decompose the
	// mean total exactly (each underlying breakdown sums exactly).
	if report.Phases == nil {
		t.Fatal("report carries no phase section")
	}
	p := report.Phases
	if p.Requests != 24 {
		t.Fatalf("phase section over %d requests, want 24", p.Requests)
	}
	if p.MeanTotalSeconds <= 0 {
		t.Fatalf("phase section total = %g", p.MeanTotalSeconds)
	}
	sum := p.MeanQueueSeconds + p.MeanDecodeSeconds + p.MeanSweepSeconds +
		p.MeanOracleSeconds + p.MeanStoreSeconds
	if math.Abs(sum-p.MeanTotalSeconds) > 1e-9 {
		t.Fatalf("phase means sum %g != mean total %g", sum, p.MeanTotalSeconds)
	}
}

// TestDriveOpenLoop floods an effectively unpaced schedule at a 1-slot
// server: the shed limiter must engage, and every request must still be
// accounted for as exactly one of ok/shed (zero errors).
func TestDriveOpenLoop(t *testing.T) {
	w := testWorkload(t, 32)
	srv := serve.New(serve.Options{MaxConcurrent: 1})
	report, err := Drive(w, DriveOptions{
		Transport: srv.InProcessTransport(),
		Mode:      ModeOpen,
	})
	if err != nil {
		t.Fatal(err)
	}
	tot := report.Totals
	if tot.Requests != 32 || tot.OK+tot.Shed+tot.Errors != 32 {
		t.Fatalf("totals don't cover the stream: %+v", tot)
	}
	if tot.Errors != 0 {
		t.Fatalf("open-loop flood produced %d errors (statuses %v), want sheds only", tot.Errors, tot.StatusCounts)
	}
	if tot.OK == 0 {
		t.Fatalf("no request succeeded: %+v", tot)
	}
	if tot.Shed != tot.StatusCounts["429"] {
		t.Fatalf("shed %d disagrees with 429 count %v", tot.Shed, tot.StatusCounts)
	}
	if report.Mode != ModeOpen {
		t.Fatalf("report mode = %q", report.Mode)
	}
}

// TestDriveRamp checks stage resolution: leftover requests extend the last
// stage and the whole stream is driven.
func TestDriveRamp(t *testing.T) {
	w := testWorkload(t, 20)
	_, report := driveInProcess(t, w, DriveOptions{
		Ramp: []RampStage{{Requests: 4, Concurrency: 1}, {Requests: 4, Concurrency: 2}},
	})
	if report.Totals.Requests != 20 || report.Totals.OK != 20 {
		t.Fatalf("ramp drive covered %d/%d requests", report.Totals.OK, report.Totals.Requests)
	}
}

// TestStages covers the ramp → stage schedule resolution directly.
func TestStages(t *testing.T) {
	cases := []struct {
		name  string
		opts  DriveOptions
		total int
		want  []RampStage
	}{
		{"flat", DriveOptions{Concurrency: 3}, 10, []RampStage{{10, 3}}},
		{"leftover-extends-last", DriveOptions{Ramp: []RampStage{{4, 1}, {4, 2}}}, 20, []RampStage{{4, 1}, {16, 2}}},
		{"overlong-ramp-trimmed", DriveOptions{Ramp: []RampStage{{8, 1}, {8, 2}}}, 10, []RampStage{{8, 1}, {2, 2}}},
		{"exact", DriveOptions{Ramp: []RampStage{{5, 1}, {5, 2}}}, 10, []RampStage{{5, 1}, {5, 2}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.opts.stages(tc.total)
			if len(got) != len(tc.want) {
				t.Fatalf("stages = %v, want %v", got, tc.want)
			}
			var sum int
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("stages = %v, want %v", got, tc.want)
				}
				sum += got[i].Requests
			}
			if sum != tc.total {
				t.Fatalf("stages cover %d requests, want %d", sum, tc.total)
			}
		})
	}
}

// TestDriveScrape checks the before/after /metrics diff: driving N requests
// must show up as a positive serve-side request delta.
func TestDriveScrape(t *testing.T) {
	w := testWorkload(t, 8)
	// Two workers stay under the in-process server's MaxConcurrent, so the
	// limiter sheds nothing and every request is counted.
	_, report := driveInProcess(t, w, DriveOptions{Scrape: true, Concurrency: 2})
	if report.Server == nil {
		t.Fatal("scrape requested but Server section missing")
	}
	const name = "nontree_serve_route_requests_total"
	if report.Server.Delta[name] != 8 {
		t.Fatalf("delta[%s] = %d, want 8 (full delta: %v)", name, report.Server.Delta[name], report.Server.Delta)
	}
	if report.Server.After[name]-report.Server.Before[name] != 8 {
		t.Fatalf("before/after disagree with delta: before=%v after=%v", report.Server.Before, report.Server.After)
	}
}

// TestProbeDrain checks the in-process drain probe and that a drained
// server sheds (not errors) subsequent requests.
func TestProbeDrain(t *testing.T) {
	w := testWorkload(t, 4)
	srv, _ := driveInProcess(t, w, DriveOptions{})
	d := ProbeDrain(srv)
	if !d.Clean() {
		t.Fatalf("drain probe after a joined drive should be clean, got %+v", d)
	}
	// A post-drain request is refused with the drain 503, which the client
	// must classify as shed.
	report, err := Drive(w, DriveOptions{Transport: srv.InProcessTransport()})
	if err != nil {
		t.Fatal(err)
	}
	if report.Totals.Shed != report.Totals.Requests || report.Totals.Errors != 0 {
		t.Fatalf("post-drain totals = %+v, want all shed", report.Totals)
	}
	if report.Totals.StatusCounts["503"] != report.Totals.Requests {
		t.Fatalf("post-drain statuses = %v, want all 503", report.Totals.StatusCounts)
	}
}

// TestDriveOptionErrors covers option validation.
func TestDriveOptionErrors(t *testing.T) {
	w := testWorkload(t, 2)
	if _, err := Drive(w, DriveOptions{}); !errors.Is(err, ErrNoTargets) {
		t.Fatalf("no targets: err = %v, want ErrNoTargets", err)
	}
	srv := serve.New(serve.Options{})
	if _, err := Drive(w, DriveOptions{Transport: srv.InProcessTransport(), Mode: "turbo"}); err == nil || !strings.Contains(err.Error(), "unknown drive mode") {
		t.Fatalf("bad mode: err = %v", err)
	}
	if _, err := Drive(w, DriveOptions{Transport: srv.InProcessTransport(), Ramp: []RampStage{{0, 0}}}); !errors.Is(err, ErrBadRamp) {
		t.Fatalf("bad ramp: err = %v, want ErrBadRamp", err)
	}
}

// TestDriveTransportErrors drives an unroutable target: every request must
// land in errors under the transport_error status key.
func TestDriveTransportErrors(t *testing.T) {
	w := testWorkload(t, 3)
	report, err := Drive(w, DriveOptions{
		Transport: failingTransport{},
		Targets:   []string{"http://203.0.113.1:9"},
	})
	if err != nil {
		t.Fatal(err)
	}
	tot := report.Totals
	if tot.Errors != 3 || tot.StatusCounts["transport_error"] != 3 {
		t.Fatalf("totals = %+v, want 3 transport errors", tot)
	}
}

type failingTransport struct{}

func (failingTransport) RoundTrip(*http.Request) (*http.Response, error) {
	return nil, errors.New("synthetic transport failure")
}
