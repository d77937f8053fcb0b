package olog

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"nontree/internal/jsonl"
)

// canonFloat maps every NaN to the canonical NaN — the one lossy case of
// the hex-literal encoding, which by contract canonicalizes NaN payloads.
func canonFloat(v float64) float64 {
	if math.IsNaN(v) {
		return math.NaN()
	}
	return v
}

func (e Event) canon() Event {
	e.RequestID = jsonl.CanonString(e.RequestID)
	e.Net = jsonl.CanonString(e.Net)
	e.Algo = jsonl.CanonString(e.Algo)
	e.Oracle = jsonl.CanonString(e.Oracle)
	e.Outcome = jsonl.CanonString(e.Outcome)
	e.Error = jsonl.CanonString(e.Error)
	e.TraceID = jsonl.CanonString(e.TraceID)
	e.QueueSeconds = canonFloat(e.QueueSeconds)
	e.DecodeSeconds = canonFloat(e.DecodeSeconds)
	e.SweepSeconds = canonFloat(e.SweepSeconds)
	e.OracleSeconds = canonFloat(e.OracleSeconds)
	e.StoreSeconds = canonFloat(e.StoreSeconds)
	e.TotalSeconds = canonFloat(e.TotalSeconds)
	return e
}

// bitEqual compares events field-wise with floats by bit pattern, so
// -0 vs +0 and distinct NaNs are detected.
func bitEqual(a, b Event) bool {
	return a.Seq == b.Seq && a.RequestID == b.RequestID && a.Net == b.Net &&
		a.Pins == b.Pins && a.Algo == b.Algo && a.Oracle == b.Oracle &&
		a.Workers == b.Workers && a.Outcome == b.Outcome && a.Status == b.Status &&
		a.Error == b.Error && a.TraceID == b.TraceID &&
		a.TraceEvents == b.TraceEvents && a.TraceDropped == b.TraceDropped &&
		a.TraceTombstoned == b.TraceTombstoned &&
		a.Candidates == b.Candidates && a.Accepted == b.Accepted &&
		a.Pruned == b.Pruned && a.OracleEvals == b.OracleEvals &&
		a.CacheHits == b.CacheHits && a.LatencyBucket == b.LatencyBucket &&
		math.Float64bits(a.QueueSeconds) == math.Float64bits(b.QueueSeconds) &&
		math.Float64bits(a.DecodeSeconds) == math.Float64bits(b.DecodeSeconds) &&
		math.Float64bits(a.SweepSeconds) == math.Float64bits(b.SweepSeconds) &&
		math.Float64bits(a.OracleSeconds) == math.Float64bits(b.OracleSeconds) &&
		math.Float64bits(a.StoreSeconds) == math.Float64bits(b.StoreSeconds) &&
		math.Float64bits(a.TotalSeconds) == math.Float64bits(b.TotalSeconds)
}

// FuzzOlogRoundTrip pins the canonical-encoding contract for wide events:
// for any event, encode→decode is bit-exact (NaN payloads canonicalized,
// invalid UTF-8 replaced up front) and decode→encode reproduces the
// bytes; and for any raw line the parser accepts, the canonical encoding
// is a fixpoint. Mirrors FuzzTraceRoundTrip in internal/trace.
func FuzzOlogRoundTrip(f *testing.F) {
	f.Add(int64(1), "r00000001", "smoke", "ldrg", 10, 4, 200, int64(42), false, int64(7), 1e-6, 3e-4, 7.03e-4, 21,
		[]byte(`{"seq":1,"request_id":"r00000001","outcome":"ok","status":200,"trace_id":"t000001"}`))
	f.Add(int64(2), "r00000002", "", "shed", 0, 0, 429, int64(0), false, int64(0), 0.0, 0.0, 0.0, 0,
		[]byte(`{"seq":2,"request_id":"r00000002","outcome":"shed","status":429,"error":"server overloaded"}`))
	f.Add(int64(3), "r00000003", "big", "timeout", 30, 8, 503, int64(5), true, int64(900), 2.5e-3, 0.05, 0.055, 27,
		[]byte(`{"seq":3,"request_id":"r00000003","outcome":"timeout","status":503,"trace_tombstoned":true}`))
	f.Add(int64(4), "r\xffbad", "n\xc3", "sldrg", -1, 2, 422, int64(-3), false, int64(1), math.Copysign(0, -1), math.Inf(1), math.NaN(), -5,
		[]byte(`not json`))
	f.Add(int64(5), "r00000005", "drain", "", 0, 0, 503, int64(0), false, int64(0), 0.0, 0.0, 1.5e-5, 16,
		[]byte(`{"seq":5,"request_id":"r00000005","outcome":"drained","status":503,"total_s":"0x1.f75104d551d69p-17"}`))

	f.Add(int64(6), "r00000006", "", "ok", 0, 0, 200, int64(0), false, int64(0), 0.0, 0.0, 0.0, 0,
		[]byte(`{"seq":1,"request_id":"r1","outcome":"ok"}{"seq":2,"request_id":"r2","outcome":"ok"}`))
	f.Add(int64(7), "r00000007", "", "ok", 0, 0, 200, int64(0), false, int64(0), 0.0, 0.0, 0.0, 0,
		[]byte(`{"seq":1,"request_id":"r1","outcome":"ok"} garbage`))

	f.Fuzz(func(t *testing.T, seq int64, s1, s2, s3 string, i1, i2, status int,
		n1 int64, tomb bool, n2 int64, f1, f2, f3 float64, bucket int, raw []byte) {

		e := Event{
			Seq: seq, RequestID: s1, Net: s2, Pins: i1, Algo: s3, Oracle: s1,
			Workers: i2, Outcome: s2, Status: status, Error: s3, TraceID: s1,
			TraceEvents: i2, TraceDropped: n1, TraceTombstoned: tomb,
			Candidates: n2, Accepted: n1, Pruned: n2, OracleEvals: n1, CacheHits: n2,
			QueueSeconds: f1, DecodeSeconds: f2, SweepSeconds: f3,
			OracleSeconds: f1, StoreSeconds: f2, TotalSeconds: f3,
			LatencyBucket: bucket,
		}
		line := e.Encode()
		back, err := DecodeEvent(line)
		if err != nil {
			t.Fatalf("canonical encoding failed to decode: %v\nline: %s", err, line)
		}
		if !bitEqual(back, e.canon()) {
			t.Fatalf("round trip changed event:\n got  %+v\n want %+v\nline: %s", back, e.canon(), line)
		}
		if again := back.Encode(); !bytes.Equal(line, again) {
			t.Fatalf("re-encoding changed bytes:\n got  %s\n want %s", again, line)
		}

		// Parser fixpoint: anything the decoder accepts is exactly one
		// JSON value, and re-encodes to a line the decoder maps to the
		// same event, bit for bit.
		if parsed, err := DecodeEvent(raw); err == nil {
			if !json.Valid(raw) {
				t.Fatalf("decoder accepted a line that is not one JSON value: %q", raw)
			}
			canon := parsed.Encode()
			reparsed, err := DecodeEvent(canon)
			if err != nil {
				t.Fatalf("canonical re-encoding failed to decode: %v\nline: %s", err, canon)
			}
			if !bitEqual(reparsed, parsed.canon()) {
				t.Fatalf("canonicalization not a fixpoint:\n got  %+v\n want %+v", reparsed, parsed.canon())
			}
			if !bytes.Equal(reparsed.Encode(), canon) {
				t.Fatalf("second encoding differs:\n got  %s\n want %s", reparsed.Encode(), canon)
			}
		}
	})
}
