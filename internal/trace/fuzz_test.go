package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
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

// enumOf returns the value whose wire name is name, or, for an unknown
// name, a value picked from the name's length, so every fuzz input yields
// a valid event.
func enumOf[E ~uint8](names []string, name string) (_ E, known bool) {
	for v, n := range names {
		if n == name {
			return E(v), true
		}
	}
	return E(len(name) % len(names)), false
}

// FuzzTraceRoundTrip pins the canonical-encoding contract: for any event,
// encode→decode is bit-exact (NaN payloads canonicalized) and
// decode→encode reproduces the bytes; for any raw line the parser
// accepts, the canonical encoding is a fixpoint; and a line naming an
// unknown kind or reason is rejected with an error naming the field.
func FuzzTraceRoundTrip(f *testing.F) {
	f.Add(int64(1), KindSweepStart.String(), 1, 0, 0, 0, false, 0.0, 0.0, 0, int64(12), 0.0, 0.0, 0.0, "", 0.0,
		[]byte(`{"seq":1,"kind":"sweep_start","sweep":1,"n":12}`))
	f.Add(int64(2), KindCandidateScored.String(), 1, 3, 0, 4, false, 0.0, 0.0, 0, int64(0), 1.25e-9, 0.0, 0.0, "", 0.001,
		[]byte(`{"seq":2,"kind":"candidate_scored","sweep":1,"index":3,"v":4,"value":"0x1.579c2ed9fcd2dp-30"}`))
	f.Add(int64(3), KindEdgeAccepted.String(), 2, 0, 1, 7, true, 100.5, -250.25, 0, int64(0), 0.0, 2e-9, 1e-9, "", 0.0,
		[]byte(`{"seq":3,"kind":"edge_accepted","u":1,"v":7,"tap":true}`))
	f.Add(int64(4), KindEdgeRejected.String(), 9, 0, 2, 3, false, 0.0, 0.0, 0, int64(0), 9e-9, 1e-9, 0.0, ReasonNoImprovement.String(), 0.0,
		[]byte(`{"seq":4,"kind":"edge_rejected","reason":"no_improvement"}`))
	f.Add(int64(5), KindCandidatePruned.String(), 2, 5, 1, 3, false, 0.0, 0.0, 0, int64(0), 3e-9, 2e-9, 0.0, "", 0.5,
		[]byte(`not json`))
	f.Add(int64(6), KindWireSizeStep.String(), 0, 0, 0, 2, false, math.Copysign(0, -1), math.Inf(1), 3, int64(0), math.NaN(), 0.0, 0.0, "", 0.0,
		[]byte(`{"seq":6,"kind":"wiresize_step","v":2,"width":3,"x":"-0x0p+00","y":"+Inf"}`))

	f.Add(int64(7), KindSweepStart.String(), 0, 0, 0, 0, false, 0.0, 0.0, 0, int64(0), 0.0, 0.0, 0.0, "", 0.0,
		[]byte(`{"seq":1,"kind":"a"}{"seq":2,"kind":"b"}`))
	f.Add(int64(8), KindSweepStart.String(), 0, 0, 0, 0, false, 0.0, 0.0, 0, int64(0), 0.0, 0.0, 0.0, "", 0.0,
		[]byte(`{"seq":1,"kind":"a"} garbage`))

	f.Fuzz(func(t *testing.T, seq int64, kindName string, sweep, index, u, v int, tap bool,
		x, y float64, width int, n int64, value, before, after float64,
		reasonName string, elapsed float64, raw []byte) {

		kind, kindKnown := enumOf[Kind](kindNames[:], kindName)
		reason, reasonKnown := enumOf[Reason](reasonNames[:], reasonName)
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

		// Unknown names: a line naming them, through the reflection
		// encoder, is refused, and the error names the field.
		for _, c := range []struct {
			field, name string
			known       bool
			line        []byte
		}{
			{"kind", kindName, kindKnown, reflectMarshal(jsonEvent{Seq: seq, Kind: kindName})},
			{"reason", reasonName, reasonKnown, reflectMarshal(jsonEvent{Seq: seq, Kind: KindEdgeRejected.String(), Reason: reasonName})},
		} {
			_, err := DecodeEvent(c.line)
			if c.known && err != nil {
				t.Fatalf("%s %q is a known name, but decoding %s failed: %v", c.field, c.name, c.line, err)
			}
			if !c.known && (err == nil || !strings.Contains(err.Error(), `"`+c.field+`"`)) {
				t.Fatalf("decoding unknown %s %q in %s: error %v, want one naming the field", c.field, c.name, c.line, err)
			}
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

// reflectMarshal is the reflection referee of the append encoder:
// encoding/json with HTML escaping off and no trailing newline, the
// encoder the trace codec used before it appended its own bytes.
func reflectMarshal(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		panic(err)
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
}

// reflectEncode is Event.Encode through the reflection referee.
func reflectEncode(e Event) []byte {
	return reflectMarshal(jsonEvent{
		Seq:     e.Seq,
		Kind:    e.Kind.String(),
		Sweep:   e.Sweep,
		Index:   e.Index,
		U:       e.U,
		V:       e.V,
		Tap:     e.Tap,
		X:       jsonl.FormatFloat(e.X),
		Y:       jsonl.FormatFloat(e.Y),
		Width:   e.Width,
		N:       e.N,
		Value:   jsonl.FormatFloat(e.Value),
		Before:  jsonl.FormatFloat(e.Before),
		After:   jsonl.FormatFloat(e.After),
		Reason:  e.Reason.String(),
		Elapsed: jsonl.FormatFloat(e.Elapsed),
	})
}

// FuzzTraceEncodeVsReflect is the differential check of the append
// encoder: for any event, including every Kind and Reason value (the
// constants, the zero value and the out-of-range ones), -0, NaN and the
// infinities, Encode and WriteJSONL write exactly the bytes of the
// reflection referee.
func FuzzTraceEncodeVsReflect(f *testing.F) {
	for k := 0; k <= len(kindNames); k++ {
		for r := 0; r <= len(reasonNames); r++ {
			f.Add(int64(k*8+r), uint8(k), uint8(r), k, r, k+r, k*r, k%2 == 1,
				float64(k)*100.5, -float64(r)*0.25, k, int64(r), 1.25e-9*float64(k), 0.0, 2e-9, 0.001)
		}
	}
	f.Add(int64(-1), uint8(255), uint8(255), -1, math.MaxInt, math.MinInt, 0, true,
		math.Copysign(0, -1), math.NaN(), -7, int64(math.MinInt64), math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8000000000bad), math.SmallestNonzeroFloat64)
	f.Fuzz(func(t *testing.T, seq int64, kind, reason uint8, sweep, index, u, v int, tap bool,
		x, y float64, width int, n int64, value, before, after, elapsed float64) {
		e := Event{
			Seq: seq, Kind: Kind(kind), Reason: Reason(reason), Sweep: sweep, Index: index,
			U: u, V: v, Tap: tap, X: x, Y: y, Width: width, N: n,
			Value: value, Before: before, After: after, Elapsed: elapsed,
		}
		want := reflectEncode(e)
		if got := e.Encode(); !bytes.Equal(got, want) {
			t.Fatalf("append encoder differs from reflection:\n got  %s\n want %s", got, want)
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, []Event{e, e.Deterministic()}); err != nil {
			t.Fatal(err)
		}
		wantLines := string(want) + "\n" + string(reflectEncode(e.Deterministic())) + "\n"
		if buf.String() != wantLines {
			t.Fatalf("WriteJSONL differs from reflection:\n got  %q\n want %q", buf.String(), wantLines)
		}
	})
}
