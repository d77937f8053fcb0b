package olog

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func fullEvent() Event {
	return Event{
		Seq:             3,
		RequestID:       "r00000003",
		Net:             "smoke",
		Pins:            10,
		Algo:            "ldrg",
		Oracle:          "elmore",
		Workers:         4,
		Outcome:         OutcomeOK,
		Status:          200,
		TraceID:         "t000003",
		TraceEvents:     42,
		TraceDropped:    1,
		Candidates:      45,
		Accepted:        2,
		Pruned:          30,
		OracleEvals:     7,
		CacheHits:       5,
		QueueSeconds:    1e-6,
		DecodeSeconds:   2e-6,
		SweepSeconds:    3e-4,
		OracleSeconds:   4e-4,
		StoreSeconds:    5e-7,
		TotalSeconds:    7.035e-4,
		LatencyBucket:   21,
		TraceTombstoned: false,
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	e := fullEvent()
	line := e.Encode()
	back, err := DecodeEvent(line)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bitEqual(back, e) {
		t.Fatalf("round trip changed event:\n got  %+v\n want %+v", back, e)
	}
	if again := back.Encode(); !bytes.Equal(line, again) {
		t.Fatalf("re-encoding changed bytes:\n got  %s\n want %s", again, line)
	}
}

func TestEncodeOmitsZeroFields(t *testing.T) {
	e := Event{Seq: 1, RequestID: "r00000001", Outcome: OutcomeShed, Status: 429, Error: "server overloaded"}
	line := string(e.Encode())
	want := `{"seq":1,"request_id":"r00000001","outcome":"shed","status":429,"error":"server overloaded"}`
	if line != want {
		t.Fatalf("minimal encoding:\n got  %s\n want %s", line, want)
	}
}

// TestEncodePreservesNegativeZero checks that a -0 total survives the
// wide-event encoding and its round trip.
func TestEncodePreservesNegativeZero(t *testing.T) {
	e := Event{Seq: 1, RequestID: "r1", Outcome: OutcomeOK, TotalSeconds: math.Copysign(0, -1)}
	line := e.Encode()
	if !strings.Contains(string(line), `"total_s":"-0x0p+00"`) {
		t.Fatalf("negative zero not preserved in encoding: %s", line)
	}
	back, err := DecodeEvent(line)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if math.Float64bits(back.TotalSeconds) != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatalf("negative zero lost in round trip: got bits %x", math.Float64bits(back.TotalSeconds))
	}
}

// TestDecodeRejectsUnknownFields checks that DecodeEvent is wired to the
// strict jsonl decoder for the wide-event schema.
func TestDecodeRejectsUnknownFields(t *testing.T) {
	if _, err := DecodeEvent([]byte(`{"seq":1,"request_id":"r1","outcome":"ok","bogus":true}`)); err == nil {
		t.Fatal("decode accepted an unknown field")
	}
}

func TestDecodeRejectsBadFloat(t *testing.T) {
	_, err := DecodeEvent([]byte(`{"seq":1,"request_id":"r1","outcome":"ok","total_s":"zzz"}`))
	if err == nil || !strings.Contains(err.Error(), `"total_s"`) {
		t.Fatalf("want an error naming the total_s field, got %v", err)
	}
}

func TestDeterministicClearsNondetFields(t *testing.T) {
	e := fullEvent()
	e.TraceTombstoned = true
	d := e.Deterministic()
	if d.Workers != 0 || d.TraceTombstoned ||
		d.QueueSeconds != 0 || d.DecodeSeconds != 0 || d.SweepSeconds != 0 ||
		d.OracleSeconds != 0 || d.StoreSeconds != 0 || d.TotalSeconds != 0 ||
		d.LatencyBucket != 0 {
		t.Fatalf("Deterministic left nondeterministic fields set: %+v", d)
	}
	// Everything else must survive the projection.
	if d.RequestID != e.RequestID || d.TraceID != e.TraceID || d.Candidates != e.Candidates ||
		d.OracleEvals != e.OracleEvals || d.Outcome != e.Outcome || d.Status != e.Status {
		t.Fatalf("Deterministic clobbered deterministic fields: %+v", d)
	}
}

func TestReadWriteJSONL(t *testing.T) {
	events := []Event{
		fullEvent(),
		{Seq: 4, RequestID: "r00000004", Outcome: OutcomeDrained, Status: 503, Error: "server draining"},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatalf("write: %v", err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(back) != len(events) {
		t.Fatalf("got %d events, want %d", len(back), len(events))
	}
	for i := range events {
		if !bitEqual(back[i], events[i]) {
			t.Fatalf("event %d changed:\n got  %+v\n want %+v", i, back[i], events[i])
		}
	}
}

func TestReadJSONLReportsLine(t *testing.T) {
	_, err := ReadJSONL(strings.NewReader("{\"seq\":1,\"request_id\":\"r1\",\"outcome\":\"ok\"}\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want line-numbered error, got %v", err)
	}
}

func TestFingerprintWorkersInvariant(t *testing.T) {
	a := fullEvent()
	b := fullEvent()
	// Same request outcome at a different Workers value with different
	// wall-clock timings must fingerprint identically.
	b.Workers = 1
	b.QueueSeconds *= 3
	b.SweepSeconds *= 2
	b.OracleSeconds /= 2
	b.TotalSeconds *= 1.5
	b.LatencyBucket = 25
	if Fingerprint([]Event{a}) != Fingerprint([]Event{b}) {
		t.Fatalf("fingerprint not Workers-invariant:\n a %s b %s",
			Fingerprint([]Event{a}), Fingerprint([]Event{b}))
	}
}
