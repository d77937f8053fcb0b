package trace

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
	e.Kind = jsonl.CanonString(e.Kind)
	e.Reason = jsonl.CanonString(e.Reason)
	e.X = canonFloat(e.X)
	e.Y = canonFloat(e.Y)
	e.Value = canonFloat(e.Value)
	e.Before = canonFloat(e.Before)
	e.After = canonFloat(e.After)
	e.Elapsed = canonFloat(e.Elapsed)
	return e
}

// eventsBitEqual compares events field-wise with floats by bit pattern,
// so -0 vs +0 and distinct NaNs are detected.
func eventsBitEqual(a, b Event) bool {
	return a.Seq == b.Seq && a.Kind == b.Kind && a.Sweep == b.Sweep &&
		a.Index == b.Index && a.U == b.U && a.V == b.V && a.Tap == b.Tap &&
		a.Width == b.Width && a.N == b.N && a.Reason == b.Reason &&
		math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.Value) == math.Float64bits(b.Value) &&
		math.Float64bits(a.Before) == math.Float64bits(b.Before) &&
		math.Float64bits(a.After) == math.Float64bits(b.After) &&
		math.Float64bits(a.Elapsed) == math.Float64bits(b.Elapsed)
}

// FuzzTraceRoundTrip pins the canonical-encoding contract: for any event,
// encode→decode is bit-exact (NaN payloads canonicalized) and
// decode→encode reproduces the bytes; and for any raw line the parser
// accepts, the canonical encoding is a fixpoint.
func FuzzTraceRoundTrip(f *testing.F) {
	f.Add(int64(1), KindSweepStart, 1, 0, 0, 0, false, 0.0, 0.0, 0, int64(12), 0.0, 0.0, 0.0, "", 0.0,
		[]byte(`{"seq":1,"kind":"sweep_start","sweep":1,"n":12}`))
	f.Add(int64(2), KindCandidateScored, 1, 3, 0, 4, false, 0.0, 0.0, 0, int64(0), 1.25e-9, 0.0, 0.0, "", 0.001,
		[]byte(`{"seq":2,"kind":"candidate_scored","sweep":1,"index":3,"v":4,"value":"0x1.579c2ed9fcd2dp-30"}`))
	f.Add(int64(3), KindEdgeAccepted, 2, 0, 1, 7, true, 100.5, -250.25, 0, int64(0), 0.0, 2e-9, 1e-9, "", 0.0,
		[]byte(`{"seq":3,"kind":"edge_accepted","u":1,"v":7,"tap":true}`))
	f.Add(int64(4), KindEdgeRejected, 9, 0, 2, 3, false, 0.0, 0.0, 0, int64(0), 9e-9, 1e-9, 0.0, ReasonNoImprovement, 0.0,
		[]byte(`{"seq":4,"kind":"edge_rejected","reason":"no_improvement"}`))
	f.Add(int64(5), KindCandidatePruned, 2, 5, 1, 3, false, 0.0, 0.0, 0, int64(0), 3e-9, 2e-9, 0.0, "", 0.5,
		[]byte(`not json`))
	f.Add(int64(6), KindWireSizeStep, 0, 0, 0, 2, false, math.Copysign(0, -1), math.Inf(1), 3, int64(0), math.NaN(), 0.0, 0.0, "", 0.0,
		[]byte(`{"seq":6,"kind":"wiresize_step","v":2,"width":3,"x":"-0x0p+00","y":"+Inf"}`))

	f.Add(int64(7), KindSweepStart, 0, 0, 0, 0, false, 0.0, 0.0, 0, int64(0), 0.0, 0.0, 0.0, "", 0.0,
		[]byte(`{"seq":1,"kind":"a"}{"seq":2,"kind":"b"}`))
	f.Add(int64(8), KindSweepStart, 0, 0, 0, 0, false, 0.0, 0.0, 0, int64(0), 0.0, 0.0, 0.0, "", 0.0,
		[]byte(`{"seq":1,"kind":"a"} garbage`))

	f.Fuzz(func(t *testing.T, seq int64, kind string, sweep, index, u, v int, tap bool,
		x, y float64, width int, n int64, value, before, after float64,
		reason string, elapsed float64, raw []byte) {

		e := Event{
			Seq: seq, Kind: kind, Sweep: sweep, Index: index, U: u, V: v,
			Tap: tap, X: x, Y: y, Width: width, N: n, Value: value,
			Before: before, After: after, Reason: reason,
			Elapsed: elapsed,
		}
		line := e.Encode()
		back, err := DecodeEvent(line)
		if err != nil {
			t.Fatalf("canonical encoding failed to decode: %v\nline: %s", err, line)
		}
		if !eventsBitEqual(back, e.canon()) {
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
			if !eventsBitEqual(reparsed, parsed.canon()) {
				t.Fatalf("canonicalization not a fixpoint:\n got  %+v\n want %+v", reparsed, parsed.canon())
			}
			if !bytes.Equal(reparsed.Encode(), canon) {
				t.Fatalf("second encoding differs:\n got  %s\n want %s", reparsed.Encode(), canon)
			}
		}
	})
}
