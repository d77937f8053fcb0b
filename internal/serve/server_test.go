package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"nontree/internal/netlist"
	"nontree/internal/trace"
)

// testNet returns a reproducible pin set for requests.
func testNet(t *testing.T, seed int64, pins int) *netlist.Net {
	t.Helper()
	net, err := netlist.NewGenerator(seed).Generate(pins)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// postRoute POSTs one request and decodes the reply, asserting the status.
func postRoute(t *testing.T, ts *httptest.Server, req RouteRequest, wantStatus int) *RouteResponse {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/route", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST /route: status %d, want %d; body: %s", resp.StatusCode, wantStatus, raw)
	}
	if wantStatus != http.StatusOK {
		return nil
	}
	var out RouteResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("decoding reply: %v; body: %s", err, raw)
	}
	return &out
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

// TestServeRouteTraceReplay is the end-to-end introspection contract: a
// routed request's exported trace replays — through the same Run code path
// — with zero drift, and its accepted edges match the reply.
func TestServeRouteTraceReplay(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := RouteRequest{Net: testNet(t, 7, 10), RouteOptions: RouteOptions{Algo: AlgoLDRG, Workers: 4}}
	reply := postRoute(t, ts, req, http.StatusOK)
	if reply.TraceID == "" || reply.TraceEvents == 0 {
		t.Fatalf("reply carries no trace: %+v", reply)
	}
	if reply.TraceDropped != 0 {
		t.Fatalf("trace ring overflowed (%d dropped); raise the test capacity", reply.TraceDropped)
	}

	status, body := get(t, ts.URL+"/traces/"+reply.TraceID)
	if status != http.StatusOK {
		t.Fatalf("GET trace: status %d: %s", status, body)
	}
	events, err := trace.ReadJSONL(strings.NewReader(body))
	if err != nil {
		t.Fatalf("parsing exported trace: %v", err)
	}
	if len(events) != reply.TraceEvents {
		t.Fatalf("exported %d events, reply said %d", len(events), reply.TraceEvents)
	}

	// The trace's accepted edges must equal the reply's.
	accepted := trace.AcceptedEdges(events)
	if len(accepted) != len(reply.AddedEdges) {
		t.Fatalf("trace has %d accepted edges, reply %d", len(accepted), len(reply.AddedEdges))
	}
	for i, a := range accepted {
		if a.U != reply.AddedEdges[i].U || a.V != reply.AddedEdges[i].V {
			t.Errorf("accepted %d: trace (%d,%d), reply (%d,%d)",
				i, a.U, a.V, reply.AddedEdges[i].U, reply.AddedEdges[i].V)
		}
	}

	// Replay: re-run the stored request fresh and diff — zero drift.
	ring := trace.NewRing(DefaultTraceCapacity)
	if _, err := Run(req.Net, req.RouteOptions, nil, ring); err != nil {
		t.Fatalf("replay run: %v", err)
	}
	if drifts := trace.Diff(ring.Events(), events); len(drifts) != 0 {
		t.Errorf("replay drifted from served trace:\n%s", trace.FormatDrifts(drifts))
	}

	// The provenance view round-trips the request.
	status, body = get(t, ts.URL+"/traces/"+reply.TraceID+"?request=1")
	if status != http.StatusOK {
		t.Fatalf("GET trace request view: status %d", status)
	}
	var stored RouteRequest
	if err := json.Unmarshal([]byte(body), &stored); err != nil {
		t.Fatalf("decoding stored request: %v", err)
	}
	if stored.Algo != req.Algo || len(stored.Net.Pins) != len(req.Net.Pins) {
		t.Errorf("stored request %+v does not match sent %+v", stored, req)
	}
}

// TestServeConcurrentRoutes hammers /route from many goroutines (run under
// -race in CI) and checks every successful reply for the same net is
// identical — the determinism contract does not bend under concurrency.
func TestServeConcurrentRoutes(t *testing.T) {
	s := New(Options{MaxConcurrent: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := RouteRequest{Net: testNet(t, 11, 9), RouteOptions: RouteOptions{Algo: AlgoLDRG}}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	const n = 16
	type outcome struct {
		status int
		final  float64
		edges  int
	}
	outcomes := make([]outcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/route", "application/json", bytes.NewReader(body))
			if err != nil {
				outcomes[i].status = -1
				return
			}
			defer resp.Body.Close()
			outcomes[i].status = resp.StatusCode
			if resp.StatusCode != http.StatusOK {
				io.Copy(io.Discard, resp.Body)
				return
			}
			var rr RouteResponse
			if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
				outcomes[i].status = -2
				return
			}
			outcomes[i].final = rr.FinalObjective
			outcomes[i].edges = len(rr.AddedEdges)
		}(i)
	}
	wg.Wait()

	ok := 0
	var want outcome
	for i, o := range outcomes {
		switch o.status {
		case http.StatusOK:
			if ok == 0 {
				want = o
			} else if o != want {
				t.Errorf("request %d: reply %+v differs from first success %+v", i, o, want)
			}
			ok++
		case http.StatusTooManyRequests: // shed by the limiter: acceptable
		default:
			t.Errorf("request %d: unexpected status %d", i, o.status)
		}
	}
	if ok == 0 {
		t.Fatal("no request succeeded")
	}
}

// TestServeConcurrencyLimit deterministically fills the limiter and checks
// the next request is shed with 429.
func TestServeConcurrencyLimit(t *testing.T) {
	s := New(Options{MaxConcurrent: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.slots <- struct{}{} // occupy the only slot
	req := RouteRequest{Net: testNet(t, 3, 6)}
	postRoute(t, ts, req, http.StatusTooManyRequests)
	<-s.slots

	postRoute(t, ts, req, http.StatusOK)
	snap := s.Metrics().Snapshot()
	if snap.Counters[CtrRouteRejected] != 1 {
		t.Errorf("rejected counter = %d, want 1", snap.Counters[CtrRouteRejected])
	}
	if snap.Counters[CtrRouteRequests] != 1 {
		t.Errorf("requests counter = %d, want 1", snap.Counters[CtrRouteRequests])
	}
}

// TestServeHealthzDrainFlip pins the drain protocol: healthy before,
// unhealthy (503) after BeginDrain, with /route refusing new work while
// /metrics and /traces stay readable.
func TestServeHealthzDrainFlip(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := RouteRequest{Net: testNet(t, 5, 8)}
	reply := postRoute(t, ts, req, http.StatusOK)

	status, body := get(t, ts.URL+"/healthz")
	if status != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("healthz before drain: %d %s", status, body)
	}

	s.BeginDrain()

	status, body = get(t, ts.URL+"/healthz")
	if status != http.StatusServiceUnavailable || !strings.Contains(body, `"status":"draining"`) {
		t.Errorf("healthz during drain: %d %s, want 503 draining", status, body)
	}
	postRoute(t, ts, req, http.StatusServiceUnavailable)
	if status, _ := get(t, ts.URL+"/metrics"); status != http.StatusOK {
		t.Errorf("metrics during drain: %d, want 200", status)
	}
	if status, _ := get(t, ts.URL+"/traces/"+reply.TraceID); status != http.StatusOK {
		t.Errorf("trace fetch during drain: %d, want 200", status)
	}
}

// TestServeMetricsExposition checks /metrics speaks Prometheus text format
// and carries both the algorithm catalog and the server's own counters.
func TestServeMetricsExposition(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postRoute(t, ts, RouteRequest{Net: testNet(t, 9, 7)}, http.StatusOK)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("metrics content type %q lacks format version", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"nontree_serve_route_requests_total 1",
		"# TYPE nontree_core_oracle_evaluations_total counter",
		"# TYPE nontree_serve_route_seconds histogram",
		"nontree_serve_route_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// TestServeTraceRetention pins the LRU bound: with MaxTraces=2 the oldest
// unread trace is evicted first.
func TestServeTraceRetention(t *testing.T) {
	s := New(Options{MaxTraces: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := RouteRequest{Net: testNet(t, 2, 6)}
	first := postRoute(t, ts, req, http.StatusOK)
	second := postRoute(t, ts, req, http.StatusOK)
	third := postRoute(t, ts, req, http.StatusOK)

	if status, _ := get(t, ts.URL+"/traces/"+first.TraceID); status != http.StatusNotFound {
		t.Errorf("oldest trace still retained: %d, want 404", status)
	}
	for _, id := range []string{second.TraceID, third.TraceID} {
		if status, _ := get(t, ts.URL+"/traces/"+id); status != http.StatusOK {
			t.Errorf("trace %s: %d, want 200", id, status)
		}
	}
	if n := s.Metrics().Snapshot().Counters[CtrTraceEvictions]; n != 1 {
		t.Errorf("evictions counter = %d, want 1", n)
	}
}

// TestServeBadRequests covers the error surface of /route and /traces.
func TestServeBadRequests(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Method misuse.
	if status, _ := get(t, ts.URL+"/route"); status != http.StatusMethodNotAllowed {
		t.Errorf("GET /route: %d, want 405", status)
	}
	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/route", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: %d, want 400", resp.StatusCode)
	}
	// Unknown top-level field (schema is strict).
	resp, err = http.Post(ts.URL+"/route", "application/json", strings.NewReader(`{"nets":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: %d, want 400", resp.StatusCode)
	}
	// Missing net.
	postRoute(t, ts, RouteRequest{}, http.StatusBadRequest)
	// Unknown algorithm.
	postRoute(t, ts, RouteRequest{Net: testNet(t, 1, 5), RouteOptions: RouteOptions{Algo: "magic"}},
		http.StatusUnprocessableEntity)
	// Degenerate net (single pin fails validation).
	bad := &netlist.Net{Pins: testNet(t, 1, 5).Pins[:1]}
	postRoute(t, ts, RouteRequest{Net: bad}, http.StatusUnprocessableEntity)
	// Unknown trace.
	if status, _ := get(t, ts.URL+"/traces/nonesuch"); status != http.StatusNotFound {
		t.Errorf("unknown trace: want 404")
	}
	if status, _ := get(t, ts.URL+"/traces/"); status != http.StatusNotFound {
		t.Errorf("empty trace id: want 404")
	}

	snap := s.Metrics().Snapshot()
	if snap.Counters[CtrRouteErrors] == 0 {
		t.Error("error counter never incremented")
	}
}

// TestServeAlgorithms smoke-tests every exposed algorithm name end-to-end.
func TestServeAlgorithms(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	net := testNet(t, 21, 7)
	for _, algo := range []string{AlgoLDRG, AlgoSLDRG, AlgoTaps, AlgoH1, AlgoH2, AlgoH3} {
		reply := postRoute(t, ts, RouteRequest{Net: net, RouteOptions: RouteOptions{Algo: algo}}, http.StatusOK)
		if reply.Algo != algo {
			t.Errorf("%s: reply echoes algo %q", algo, reply.Algo)
		}
		if len(reply.Nodes) == 0 || len(reply.Edges) == 0 {
			t.Errorf("%s: empty topology in reply", algo)
		}
		// H2/H3 add their wire unconditionally and may regress; the greedy
		// algorithms never accept a worsening step.
		if algo != AlgoH2 && algo != AlgoH3 && reply.FinalObjective > reply.InitialObjective {
			t.Errorf("%s: objective worsened %g → %g", algo, reply.InitialObjective, reply.FinalObjective)
		}
	}
}

// TestServeConcurrentStress hammers one server from four directions at
// once — /route POSTs (filling a 2-slot trace window so every store
// evicts), /traces/<id> lookups racing those evictions, /metrics scrapes,
// and a BeginDrain flipped mid-flight. The CI race step runs this under
// -race; here we only assert that every reply is one of the sanctioned
// statuses and that the server lands idle and draining.
func TestServeConcurrentStress(t *testing.T) {
	s := New(Options{MaxTraces: 2, MaxConcurrent: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := RouteRequest{Net: testNet(t, 11, 6), RouteOptions: RouteOptions{Algo: AlgoLDRG, Workers: 2}}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	const (
		routers   = 6
		perRouter = 4
		readers   = 3
	)
	var (
		ids      sync.Map // trace id → struct{}; feeds the reader goroutines
		done     = make(chan struct{})
		halfway  = make(chan struct{})
		routed   sync.WaitGroup
		reading  sync.WaitGroup
		posted   int64
		postedMu sync.Mutex
	)

	for i := 0; i < routers; i++ {
		routed.Add(1)
		go func() {
			defer routed.Done()
			for j := 0; j < perRouter; j++ {
				resp, err := http.Post(ts.URL+"/route", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					var out RouteResponse
					if err := json.Unmarshal(raw, &out); err != nil {
						t.Errorf("decoding reply: %v", err)
					} else if out.TraceID != "" {
						ids.Store(out.TraceID, struct{}{})
					}
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					// shed by the limiter or refused while draining
				default:
					t.Errorf("POST /route: unexpected status %d: %s", resp.StatusCode, raw)
				}
				postedMu.Lock()
				posted++
				if posted == routers*perRouter/2 {
					close(halfway)
				}
				postedMu.Unlock()
			}
		}()
	}

	// Flip the server draining once half the requests have resolved, so
	// in-flight routing, trace stores and reads all see the transition.
	go func() {
		<-halfway
		s.BeginDrain()
	}()

	for i := 0; i < readers; i++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				ids.Range(func(key, _ any) bool {
					status, body := get(t, ts.URL+"/traces/"+key.(string))
					if status != http.StatusOK && status != http.StatusNotFound {
						t.Errorf("GET /traces/%s: unexpected status %d: %s", key, status, body)
					}
					return true
				})
				if status, body := get(t, ts.URL+"/metrics"); status != http.StatusOK {
					t.Errorf("GET /metrics: status %d: %s", status, body)
				}
				if status, _ := get(t, ts.URL+"/healthz"); status != http.StatusOK && status != http.StatusServiceUnavailable {
					t.Errorf("GET /healthz: unexpected status %d", status)
				}
			}
		}()
	}

	routed.Wait()
	close(done)
	reading.Wait()

	if got := s.Inflight(); got != 0 {
		t.Errorf("inflight after all requests resolved: %d", got)
	}
	if !s.Draining() {
		t.Error("server should be draining after BeginDrain")
	}
	if status, _ := get(t, ts.URL+"/healthz"); status != http.StatusServiceUnavailable {
		t.Errorf("GET /healthz while draining: status %d, want 503", status)
	}
}
