package trace

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"nontree/internal/ring"
)

func TestEncodeOmitsZeroFields(t *testing.T) {
	e := Event{Seq: 1, Kind: KindSweepStart, Sweep: 1, N: 3}
	got := string(e.Encode())
	want := `{"seq":1,"kind":"sweep_start","sweep":1,"n":3}`
	if got != want {
		t.Errorf("got %s, want %s", got, want)
	}
}

// TestEventIsPointerFree: Event holds only numbers and bools, so the
// chunks a Ring stores events in are never scanned by the garbage
// collector, and its fields pack into 112 bytes.
func TestEventIsPointerFree(t *testing.T) {
	typ := reflect.TypeOf(Event{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Bool, reflect.Uint8, reflect.Int, reflect.Int64, reflect.Float64:
		default:
			t.Errorf("field %s is a %s", f.Name, f.Type)
		}
	}
	if size := unsafe.Sizeof(Event{}); size > 112 {
		t.Errorf("Event takes %d bytes, want at most 112", size)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	events := []Event{
		{Seq: 1, Kind: KindSweepStart, Sweep: 1, N: 12},
		{Seq: 2, Kind: KindCandidateScored, Sweep: 1, Index: 0, U: 0, V: 3, Value: 1.25e-9},
		{Seq: 3, Kind: KindCandidateScored, Sweep: 1, Index: 1, U: 2, V: 5, Tap: true, X: 100.5, Y: -0.0, Value: 3.5e-10},
		{Seq: 4, Kind: KindEdgeAccepted, U: 0, V: 3, Before: 2e-9, After: 1.25e-9, Elapsed: 0.125},
		{Seq: 5, Kind: KindEdgeRejected, U: 1, V: 4, Value: 9e-9, Before: 1.25e-9, Reason: ReasonNoImprovement},
		{Seq: 6, Kind: KindCandidatePruned, Sweep: 2, Index: 4, U: 1, V: 6, Value: 3e-9, Before: 2.5e-9},
		{Seq: 7, Kind: KindWireSizeStep, U: 0, V: 2, Width: 3, Before: 1e-9, After: 0.5e-9},
	}
	for _, e := range events {
		line := e.Encode()
		back, err := DecodeEvent(line)
		if err != nil {
			t.Fatalf("decoding %s: %v", line, err)
		}
		if back != e {
			t.Errorf("round trip changed event:\n got  %+v\n want %+v", back, e)
		}
		again := back.Encode()
		if !bytes.Equal(line, again) {
			t.Errorf("re-encoding changed bytes:\n got  %s\n want %s", again, line)
		}
	}
}

// TestEncodePreservesNegativeZero checks that a -0 candidate score
// survives the trace encoding round trip.
func TestEncodePreservesNegativeZero(t *testing.T) {
	e := Event{Seq: 1, Kind: KindCandidateScored, Value: math.Copysign(0, -1)}
	back, err := DecodeEvent(e.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(back.Value) != math.Float64bits(e.Value) {
		t.Errorf("lost -0: got bits %x, want %x",
			math.Float64bits(back.Value), math.Float64bits(e.Value))
	}
}

// TestDecodeRejectsUnknownFields checks that DecodeEvent is wired to the
// strict jsonl decoder for the trace schema.
func TestDecodeRejectsUnknownFields(t *testing.T) {
	if _, err := DecodeEvent([]byte(`{"seq":1,"kind":"sweep_start","bogus":3}`)); err == nil {
		t.Error("expected an error for an unknown field")
	}
}

// TestDecodeRejectsUnknownNames: kind and reason are enums on the wire
// too; a name outside them, including what String renders for a value
// outside the constants, is refused with an error naming the field.
func TestDecodeRejectsUnknownNames(t *testing.T) {
	for _, c := range []struct{ line, field string }{
		{`{"seq":1,"kind":"sweep_begin"}`, "kind"},
		{`{"seq":1,"kind":"edge_rejected","reason":"too_slow"}`, "reason"},
		{string(Event{Seq: 1, Kind: Kind(200)}.Encode()), "kind"},
		{string(Event{Seq: 1, Kind: KindEdgeRejected, Reason: Reason(9)}.Encode()), "reason"},
	} {
		_, err := DecodeEvent([]byte(c.line))
		if err == nil || !strings.Contains(err.Error(), `field "`+c.field+`"`) {
			t.Errorf("DecodeEvent(%s): error %v, want one naming field %q", c.line, err, c.field)
		}
	}
	if got := Kind(200).String(); got != "Kind(200)" {
		t.Errorf("Kind(200).String() = %q", got)
	}
}

func TestReadWriteJSONL(t *testing.T) {
	events := []Event{
		{Seq: 1, Kind: KindSweepStart, Sweep: 1, N: 2},
		{Seq: 2, Kind: KindEdgeAccepted, U: 0, V: 1, After: 1e-9},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(events) {
		t.Fatalf("got %d events, want %d", len(back), len(events))
	}
	for i := range back {
		if back[i] != events[i] {
			t.Errorf("event %d: got %+v, want %+v", i, back[i], events[i])
		}
	}
}

func TestFingerprintExcludesElapsed(t *testing.T) {
	a := []Event{{Seq: 1, Kind: KindSweepStart, Sweep: 1, Elapsed: 0.5}}
	b := []Event{{Seq: 1, Kind: KindSweepStart, Sweep: 1, Elapsed: 99}}
	if Fingerprint(a) != Fingerprint(b) {
		t.Error("fingerprints differ on Elapsed alone")
	}
	if strings.Contains(Fingerprint(a), "elapsed") {
		t.Error("fingerprint leaked the elapsed field")
	}
}

func TestRingAssignsSeqAndElapsed(t *testing.T) {
	r := NewRing(8)
	r.Emit(Event{Kind: KindSweepStart, Sweep: 1})
	r.Emit(Event{Kind: KindSweepStart, Sweep: 2})
	events := r.Events()
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	if events[0].Seq != 1 || events[1].Seq != 2 {
		t.Errorf("seq assignment: got %d, %d", events[0].Seq, events[1].Seq)
	}
	if events[0].Elapsed < 0 || events[1].Elapsed < events[0].Elapsed {
		t.Errorf("elapsed not monotone: %v, %v", events[0].Elapsed, events[1].Elapsed)
	}
}

// TestRingEmitEachSharesElapsed: the events of one batch take consecutive
// sequence numbers after the single events before them, in fill order,
// and all carry the Elapsed read once as the batch started.
func TestRingEmitEachSharesElapsed(t *testing.T) {
	r := NewRing(16)
	r.Emit(Event{Kind: KindSweepStart, Sweep: 1})
	r.EmitEach(5, func(i int, e *Event) {
		if *e != (Event{}) {
			t.Errorf("fill %d got a used slot: %+v", i, *e)
		}
		e.Kind, e.Sweep, e.Index = KindCandidateScored, 1, i
	})
	r.Emit(Event{Kind: KindEdgeAccepted, Sweep: 1})
	events := r.Events()
	if len(events) != 7 {
		t.Fatalf("got %d events, want 7", len(events))
	}
	batch := events[1:6]
	for i, e := range batch {
		if e.Seq != int64(i+2) || e.Index != i || e.Kind != KindCandidateScored {
			t.Errorf("batch event %d: %+v, want seq %d index %d", i, e, i+2, i)
		}
		if e.Elapsed != batch[0].Elapsed {
			t.Errorf("batch event %d: elapsed %v, batch started at %v", i, e.Elapsed, batch[0].Elapsed)
		}
	}
	if batch[0].Elapsed < events[0].Elapsed || events[6].Elapsed < batch[0].Elapsed || events[6].Seq != 7 {
		t.Errorf("batch out of order with its neighbours: %+v", events)
	}
}

// TestNopEmitEachBuildsNothing: the no-op tracer never calls fill.
func TestNopEmitEachBuildsNothing(t *testing.T) {
	Nop{}.EmitEach(3, func(int, *Event) { t.Fatal("Nop called fill") })
}

func TestRingEvictsOldest(t *testing.T) {
	r := NewRing(3)
	for i := 1; i <= 5; i++ {
		r.Emit(Event{Kind: KindSweepStart, Sweep: i})
	}
	events := r.Events()
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	for i, want := range []int{3, 4, 5} {
		if events[i].Sweep != want || events[i].Seq != int64(want) {
			t.Errorf("event %d: got sweep %d seq %d, want %d", i, events[i].Sweep, events[i].Seq, want)
		}
	}
	if r.Dropped() != 2 {
		t.Errorf("dropped: got %d, want 2", r.Dropped())
	}
}

func TestRingConcurrentEmit(t *testing.T) {
	r := NewRing(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Emit(Event{Kind: KindCandidateScored, Value: 1e-9})
			}
		}()
	}
	wg.Wait()
	if got := r.Len() + int(r.Dropped()); got != 800 {
		t.Errorf("retained+dropped = %d, want 800", got)
	}
	seen := make(map[int64]bool)
	for _, e := range r.Events() {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
}

func TestRingDefaultCapacity(t *testing.T) {
	r := NewRing(0)
	for i := 0; i < DefaultRingCapacity+10; i++ {
		r.Emit(Event{Kind: KindSweepStart, Sweep: i})
	}
	if r.Len() != DefaultRingCapacity || r.Dropped() != 10 {
		t.Fatalf("len=%d dropped=%d, want %d and 10", r.Len(), r.Dropped(), DefaultRingCapacity)
	}
}

func TestOrNop(t *testing.T) {
	if _, ok := OrNop(nil).(Nop); !ok {
		t.Error("OrNop(nil) is not Nop")
	}
	r := NewRing(4)
	if OrNop(r) != Tracer(r) {
		t.Error("OrNop(r) did not return r")
	}
}

func TestAcceptedEdges(t *testing.T) {
	events := []Event{
		{Seq: 1, Kind: KindSweepStart, Sweep: 1, N: 2},
		{Seq: 2, Kind: KindCandidateScored, Sweep: 1, U: 0, V: 2, Value: 2e-9},
		{Seq: 3, Kind: KindEdgeAccepted, U: 0, V: 2, Before: 3e-9, After: 2e-9},
		{Seq: 4, Kind: KindEdgeAccepted, U: 0, V: 7, Tap: true, X: 10, Y: 20, After: 1e-9},
		{Seq: 5, Kind: KindEdgeRejected, U: 1, V: 3, Reason: ReasonNoImprovement},
	}
	got := AcceptedEdges(events)
	want := []AcceptedEdge{
		{U: 0, V: 2, After: 2e-9},
		{U: 0, V: 7, Tap: true, X: 10, Y: 20, After: 1e-9},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d accepted edges, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("accepted %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestDiffCleanOnElapsedOnlyChanges(t *testing.T) {
	a := []Event{{Seq: 1, Kind: KindSweepStart, Sweep: 1, Elapsed: 1}}
	b := []Event{{Seq: 1, Kind: KindSweepStart, Sweep: 1, Elapsed: 2}}
	if d := Diff(a, b); len(d) != 0 {
		t.Errorf("expected no drift, got %v", d)
	}
}

func TestDiffReportsDivergence(t *testing.T) {
	want := []Event{
		{Seq: 1, Kind: KindSweepStart, Sweep: 1},
		{Seq: 2, Kind: KindEdgeAccepted, U: 0, V: 1},
	}
	got := []Event{
		{Seq: 1, Kind: KindSweepStart, Sweep: 1},
		{Seq: 2, Kind: KindEdgeAccepted, U: 0, V: 2},
		{Seq: 3, Kind: KindSweepStart, Sweep: 2},
	}
	drifts := Diff(got, want)
	if len(drifts) != 2 {
		t.Fatalf("got %d drifts, want 2:\n%s", len(drifts), FormatDrifts(drifts))
	}
	if drifts[0].Index != 1 {
		t.Errorf("first drift at %d, want 1", drifts[0].Index)
	}
	if drifts[1].Index != 2 || drifts[1].Want != "" {
		t.Errorf("second drift should be the extra trailing event, got %+v", drifts[1])
	}
	if FormatDrifts(drifts) == "" {
		t.Error("FormatDrifts returned empty for non-empty drift list")
	}
	if FormatDrifts(nil) != "" {
		t.Error("FormatDrifts returned non-empty for clean diff")
	}
}

func TestDiffBounded(t *testing.T) {
	var got, want []Event
	for i := 0; i < 100; i++ {
		got = append(got, Event{Seq: int64(i + 1), Kind: KindSweepStart, Sweep: i})
		want = append(want, Event{Seq: int64(i + 1), Kind: KindSweepStart, Sweep: i + 1000})
	}
	if d := Diff(got, want); len(d) > maxDrifts {
		t.Errorf("drift list not bounded: %d > %d", len(d), maxDrifts)
	}
}

// TestRingWriteJSONLInPlace: a ring's in-place export, wrapped or not,
// writes the bytes WriteJSONL writes for its Events copy; a released
// pooled ring exports nothing and says so.
func TestRingWriteJSONLInPlace(t *testing.T) {
	for _, n := range []int{0, 5, 300, 700} {
		r := NewPooledRing(512, ring.NewPool[Event](1024))
		for i := 1; i <= n; i++ {
			r.Emit(Event{Kind: KindCandidateScored, Sweep: i % 7, Index: i, Value: float64(i) * 1e-12})
		}
		var want, got bytes.Buffer
		if err := WriteJSONL(&want, r.Events()); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteJSONL(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%d events: in-place export differs from WriteJSONL(Events())", n)
		}
		r.Release()
		if b, ok := r.AppendJSONL([]byte("x")); ok || string(b) != "x" {
			t.Fatalf("%d events: a released ring appended %q, ok %t", n, b, ok)
		}
	}
}
