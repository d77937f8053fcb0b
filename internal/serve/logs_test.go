package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"nontree/internal/geom"
	"nontree/internal/netlist"
	"nontree/internal/obs"
	"nontree/internal/olog"
)

// getLogs fetches a /logs URL and decodes the canonical JSONL body.
func getLogs(t *testing.T, url string) (int, []olog.Event, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	raw := buf.String()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil, raw
	}
	events, err := olog.ReadJSONL(strings.NewReader(raw))
	if err != nil {
		t.Fatalf("GET %s: body is not canonical JSONL: %v\n%s", url, err, raw)
	}
	return resp.StatusCode, events, raw
}

// waitLogLen polls until the log ring holds want events: the handler emits
// after writing the response, so a client can briefly outrun the event.
func waitLogLen(t *testing.T, s *Server, want int) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if s.Logs().Len() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("log ring stuck at %d events, want %d", s.Logs().Len(), want)
}

// TestRouteWideEvent is the tentpole's end-to-end contract: the /route
// reply carries a request id (body and X-Request-ID header) that resolves
// at /logs?request=<id> to one wide event whose trace exemplar resolves at
// /traces/<id>, whose counter deltas match the reply, and whose phase
// latencies sum (within accounting slack) to the observed total.
func TestRouteWideEvent(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	net := testNet(t, 7, 10)
	net.Name = "wide-event-net"
	reply := postRoute(t, ts, RouteRequest{Net: net, RouteOptions: RouteOptions{Algo: AlgoLDRG, Workers: 2}}, http.StatusOK)
	if reply.RequestID == "" {
		t.Fatal("/route reply carries no request_id")
	}
	if reply.Phases == nil {
		t.Fatal("/route reply carries no phase breakdown")
	}

	ev, ok := findEvent(s, reply.RequestID)
	if !ok {
		t.Fatalf("request %s has no wide event", reply.RequestID)
	}
	status, events, _ := getLogs(t, ts.URL+"/logs?request="+reply.RequestID)
	if status != http.StatusOK || len(events) != 1 {
		t.Fatalf("GET /logs?request=%s: status %d, %d events", reply.RequestID, status, len(events))
	}
	got := events[0]
	if got.RequestID != reply.RequestID || got.Outcome != olog.OutcomeOK || got.Status != http.StatusOK {
		t.Fatalf("wide event = %+v", got)
	}
	if got.TraceTombstoned {
		t.Error("fresh trace reported tombstoned")
	}
	if got.TraceID != reply.TraceID || got.TraceEvents != reply.TraceEvents {
		t.Errorf("event trace link (%s, %d) != reply (%s, %d)",
			got.TraceID, got.TraceEvents, reply.TraceID, reply.TraceEvents)
	}
	if code, _ := get(t, ts.URL+"/traces/"+got.TraceID); code != http.StatusOK {
		t.Errorf("exemplar trace %s does not resolve: %d", got.TraceID, code)
	}
	if got.OracleEvals != int64(reply.Evaluations) {
		t.Errorf("event oracle_evals %d != reply evaluations %d", got.OracleEvals, reply.Evaluations)
	}
	if got.Algo != AlgoLDRG || got.Oracle != OracleElmore || got.Workers != 2 {
		t.Errorf("event options echo = %q/%q/%d", got.Algo, got.Oracle, got.Workers)
	}
	if got.Net != "wide-event-net" || got.Pins != 10 {
		t.Errorf("event net identity = %q/%d pins, want wide-event-net/10", got.Net, got.Pins)
	}

	// Phase accounting: the five phases sum to the event total within the
	// only untimed interval (response writing between the store mark and
	// emit), and exactly to the reply's own total by construction.
	sum := ev.QueueSeconds + ev.DecodeSeconds + ev.SweepSeconds + ev.OracleSeconds + ev.StoreSeconds
	if ev.TotalSeconds <= 0 {
		t.Fatalf("wide event total = %g", ev.TotalSeconds)
	}
	if sum > ev.TotalSeconds+1e-9 {
		t.Errorf("phases sum %g exceeds total %g", sum, ev.TotalSeconds)
	}
	if slack := ev.TotalSeconds - sum; slack > 0.5*ev.TotalSeconds+5e-3 {
		t.Errorf("phase accounting slack %g of total %g (event %+v)", slack, ev.TotalSeconds, ev)
	}
	if ev.LatencyBucket != obs.BucketIndex(ev.TotalSeconds) {
		t.Errorf("latency bucket %d, want %d", ev.LatencyBucket, obs.BucketIndex(ev.TotalSeconds))
	}
	p := reply.Phases
	psum := p.QueueSeconds + p.DecodeSeconds + p.SweepSeconds + p.OracleSeconds + p.StoreSeconds
	if math.Abs(psum-p.TotalSeconds) > 1e-12 {
		t.Errorf("reply phases sum %g != reply total %g", psum, p.TotalSeconds)
	}
}

// TestRequestIDHeaderMatchesBody pins the header/body agreement and the
// arrival-order id scheme.
func TestRequestIDHeaderMatchesBody(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postRouteRaw(t, ts)
	defer resp.Body.Close()
	hdr := resp.Header.Get("X-Request-ID")
	if hdr != "r00000001" {
		t.Fatalf("first request id = %q, want r00000001", hdr)
	}
	var reply RouteResponse
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	if reply.RequestID != hdr {
		t.Fatalf("body request_id %q != header %q", reply.RequestID, hdr)
	}
}

// TestRouteErrorsNameRequestOnce pins where a routing error's provenance
// comes from: the handler tags every 422 with the X-Request-ID, exactly
// once, in the reply and in the wide event alike. The cases cover both
// sides of core: validation failures (a one-pin net, an unknown algo)
// and an oracle failure inside an algorithm (near-coincident pins leave
// the conductance matrix singular), directly and nested inside SLDRG.
func TestRouteErrorsNameRequestOnce(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	nearPins := &netlist.Net{Pins: []geom.Point{{X: 0, Y: 0}, {X: 1e-300, Y: 0}, {X: 5, Y: 5}}}
	for _, tc := range []struct {
		name string
		req  RouteRequest
	}{
		{"one-pin net", RouteRequest{Net: &netlist.Net{Pins: testNet(t, 1, 5).Pins[:1]}}},
		{"unknown algo", RouteRequest{Net: testNet(t, 1, 5), RouteOptions: RouteOptions{Algo: "magic"}}},
		{"oracle failure", RouteRequest{Net: nearPins}},
		{"oracle failure under sldrg", RouteRequest{Net: nearPins, RouteOptions: RouteOptions{Algo: AlgoSLDRG}}},
	} {
		body, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/route", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var reply errorResponse
		err = json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: decoding reply: %v", tc.name, err)
		}
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status %d, want 422: %s", tc.name, resp.StatusCode, reply.Error)
		}
		id := resp.Header.Get("X-Request-ID")
		tag := "[request " + id + "]"
		if id == "" || reply.RequestID != id {
			t.Fatalf("%s: header id %q, body request_id %q", tc.name, id, reply.RequestID)
		}
		if got := strings.Count(reply.Error, tag); got != 1 {
			t.Errorf("%s: reply error carries %d %q tags, want 1: %s", tc.name, got, tag, reply.Error)
		}
		if _, ok := findEvent(s, id); !ok { // the event lands after the reply
			t.Fatalf("%s: request %s has no wide event", tc.name, id)
		}
		status, events, _ := getLogs(t, ts.URL+"/logs?request="+id)
		if status != http.StatusOK || len(events) != 1 {
			t.Fatalf("%s: GET /logs?request=%s: status %d, %d events", tc.name, id, status, len(events))
		}
		if ev := events[0]; ev.Outcome != olog.OutcomeError || ev.Error != reply.Error {
			t.Errorf("%s: wide event outcome %q error %q, want %q and the reply's %q",
				tc.name, ev.Outcome, ev.Error, olog.OutcomeError, reply.Error)
		}
	}
}

// TestInvalidNetsReplyWithValidateText pins the 422 text of every kind of
// net Validate rejects, under every algorithm: Run validates a net once,
// through the algorithm's own entry point, and the reply reads
// "routing failed: [request <id>] " followed by Validate's error.
func TestInvalidNetsReplyWithValidateText(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	pins := testNet(t, 1, 5).Pins
	for _, net := range []*netlist.Net{
		{Pins: pins[:1]},
		{Pins: []geom.Point{pins[0], {X: 1.5e308, Y: 0}, pins[1]}},
		{Pins: []geom.Point{pins[0], pins[1], pins[2], pins[1]}},
	} {
		want := net.Validate()
		if want == nil {
			t.Fatalf("net %v validates", net.Pins)
		}
		for _, algo := range []string{AlgoLDRG, AlgoSLDRG, AlgoTaps, AlgoH1, AlgoH2, AlgoH3} {
			req := RouteRequest{Net: net, RouteOptions: RouteOptions{Algo: algo}}
			if _, err := Run(req.Net, req.RouteOptions, nil, nil); err == nil || err.Error() != want.Error() {
				t.Errorf("%s: Run error %v, want %v", algo, err, want)
			}
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+"/route", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var reply errorResponse
			err = json.NewDecoder(resp.Body).Decode(&reply)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("%s: decoding reply: %v", algo, err)
			}
			wantText := "routing failed: [request " + resp.Header.Get("X-Request-ID") + "] " + want.Error()
			if resp.StatusCode != http.StatusUnprocessableEntity || reply.Error != wantText {
				t.Errorf("%s: status %d, error %q; want 422, %q", algo, resp.StatusCode, reply.Error, wantText)
			}
		}
	}
}

// TestWideEventWorkersInvariant pins the acceptance criterion: the
// deterministic projection of a request's wide event is byte-identical
// across Workers ∈ {1, 4, GOMAXPROCS}. Each Workers value runs on a fresh
// server so sequence numbers and request ids align.
func TestWideEventWorkersInvariant(t *testing.T) {
	workers := []int{1, 4, runtime.GOMAXPROCS(0)}
	var lines []string
	for _, wk := range workers {
		s := New(Options{})
		ts := httptest.NewServer(s.Handler())
		reply := postRoute(t, ts, RouteRequest{
			Net:          testNet(t, 7, 12),
			RouteOptions: RouteOptions{Algo: AlgoLDRG, Workers: wk},
		}, http.StatusOK)
		ev, ok := findEvent(s, reply.RequestID)
		ts.Close()
		if !ok {
			t.Fatalf("workers=%d: no wide event", wk)
		}
		if ev.Workers != wk {
			t.Errorf("workers=%d: event echoes %d", wk, ev.Workers)
		}
		lines = append(lines, string(ev.Deterministic().Encode()))
	}
	for i := 1; i < len(lines); i++ {
		if lines[i] != lines[0] {
			t.Errorf("wide event not Workers-invariant:\n workers=%d: %s\n workers=%d: %s",
				workers[0], lines[0], workers[i], lines[i])
		}
	}
}

// TestLogsListingRoundTrip pins the /logs wire format: the listing is
// canonical JSONL that round-trips bit-exactly (decode → re-encode
// reproduces the exact bytes served), with non-ok outcomes interleaved.
func TestLogsListingRoundTrip(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		postRoute(t, ts, RouteRequest{Net: testNet(t, int64(i+1), 6)}, http.StatusOK)
	}
	// A refusal interleaves a non-ok outcome into the log.
	postRoute(t, ts, RouteRequest{}, http.StatusBadRequest)
	waitLogLen(t, s, 4)

	status, events, raw := getLogs(t, ts.URL+"/logs")
	if status != http.StatusOK || len(events) != 4 {
		t.Fatalf("GET /logs: status %d, %d events, want 4", status, len(events))
	}
	var re bytes.Buffer
	if err := olog.WriteJSONL(&re, events); err != nil {
		t.Fatal(err)
	}
	if re.String() != raw {
		t.Fatalf("/logs body does not round-trip bit-exactly:\n got  %q\n want %q", re.String(), raw)
	}
	for i, e := range events {
		if e.Seq != int64(i+1) {
			t.Errorf("event %d has seq %d", i, e.Seq)
		}
	}
	if events[3].Outcome != olog.OutcomeError || events[3].Error == "" {
		t.Errorf("refusal event = %+v", events[3])
	}
}

// TestLogsExemplarTombstone pins satellite behaviour: resolving the wide
// event of a request whose trace has been evicted returns the event with
// trace_tombstoned set — NOT a 404. The event outlives its trace.
func TestLogsExemplarTombstone(t *testing.T) {
	s := New(Options{MaxTraces: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first := postRoute(t, ts, RouteRequest{Net: testNet(t, 1, 6)}, http.StatusOK)
	// The second route evicts the first trace (MaxTraces: 1).
	second := postRoute(t, ts, RouteRequest{Net: testNet(t, 2, 6)}, http.StatusOK)
	waitLogLen(t, s, 2)
	if code, _ := get(t, ts.URL+"/traces/"+first.TraceID); code != http.StatusNotFound {
		t.Fatalf("evicted trace still resolves: %d", code)
	}

	status, events, _ := getLogs(t, ts.URL+"/logs?request="+first.RequestID)
	if status != http.StatusOK || len(events) != 1 {
		t.Fatalf("evicted-trace request lookup: status %d, %d events (want the event, not 404)", status, len(events))
	}
	if !events[0].TraceTombstoned {
		t.Error("event of an evicted trace is not tombstoned")
	}
	if events[0].TraceID != first.TraceID {
		t.Errorf("tombstoned event trace id = %q, want %q", events[0].TraceID, first.TraceID)
	}

	// The surviving request's event is not tombstoned, and the stored
	// event (unlike the rendered one) stays clean.
	status, events, _ = getLogs(t, ts.URL+"/logs?request="+second.RequestID)
	if status != http.StatusOK || len(events) != 1 || events[0].TraceTombstoned {
		t.Fatalf("live-trace request lookup: status %d, events %+v", status, events)
	}
	if ev, _ := s.Logs().Find(first.RequestID); ev.TraceTombstoned {
		t.Error("tombstone leaked into the stored event")
	}

	// Unknown ids are a real 404.
	if status, _, _ := getLogs(t, ts.URL+"/logs?request=r99999999"); status != http.StatusNotFound {
		t.Errorf("unknown request id: status %d, want 404", status)
	}
}

// TestLogsDisabledAndEviction pins the MaxLogEvents knob: negative
// disables the surface (404 + serve.log.dropped), and a small ring evicts
// oldest-first while counting serve.log.evictions.
func TestLogsDisabledAndEviction(t *testing.T) {
	s := New(Options{MaxLogEvents: -1})
	ts := httptest.NewServer(s.Handler())
	postRoute(t, ts, RouteRequest{Net: testNet(t, 1, 5)}, http.StatusOK)
	waitInflight(t, s, 0)
	if s.Logs() != nil {
		t.Error("Logs() non-nil with logging disabled")
	}
	if status, _, body := getLogs(t, ts.URL+"/logs"); status != http.StatusNotFound {
		t.Errorf("disabled /logs: status %d (%s), want 404", status, body)
	}
	snap := s.Metrics().Snapshot()
	if snap.Counters[obs.CtrLogDropped] != 1 || snap.Counters[obs.CtrLogEvents] != 0 {
		t.Errorf("disabled logging counters: dropped %d events %d, want 1 and 0",
			snap.Counters[obs.CtrLogDropped], snap.Counters[obs.CtrLogEvents])
	}
	ts.Close()

	s = New(Options{MaxLogEvents: 2})
	ts = httptest.NewServer(s.Handler())
	defer ts.Close()
	for i := 0; i < 3; i++ {
		postRoute(t, ts, RouteRequest{Net: testNet(t, int64(i+1), 5)}, http.StatusOK)
	}
	waitInflight(t, s, 0)
	status, events, _ := getLogs(t, ts.URL+"/logs")
	if status != http.StatusOK || len(events) != 2 {
		t.Fatalf("ring of 2 after 3 requests: status %d, %d events", status, len(events))
	}
	if events[0].RequestID != "r00000002" || events[1].RequestID != "r00000003" {
		t.Errorf("retained tail = %s, %s; want oldest evicted", events[0].RequestID, events[1].RequestID)
	}
	snap = s.Metrics().Snapshot()
	if snap.Counters[obs.CtrLogEvictions] != 1 || snap.Counters[obs.CtrLogEvents] != 3 {
		t.Errorf("eviction counters: evictions %d events %d, want 1 and 3",
			snap.Counters[obs.CtrLogEvictions], snap.Counters[obs.CtrLogEvents])
	}
}
