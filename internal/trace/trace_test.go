package trace

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestEncodeOmitsZeroFields(t *testing.T) {
	e := Event{Seq: 1, Kind: KindSweepStart, Sweep: 1, N: 3}
	got := string(e.Encode())
	want := `{"seq":1,"kind":"sweep_start","sweep":1,"n":3}`
	if got != want {
		t.Errorf("got %s, want %s", got, want)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	events := []Event{
		{Seq: 1, Kind: KindSweepStart, Sweep: 1, N: 12},
		{Seq: 2, Kind: KindCandidateScored, Sweep: 1, Index: 0, U: 0, V: 3, Value: 1.25e-9},
		{Seq: 3, Kind: KindCandidateScored, Sweep: 1, Index: 1, U: 2, V: 5, Tap: true, X: 100.5, Y: -0.0, Value: 3.5e-10},
		{Seq: 4, Kind: KindEdgeAccepted, U: 0, V: 3, Before: 2e-9, After: 1.25e-9, Elapsed: 0.125},
		{Seq: 5, Kind: KindEdgeRejected, U: 1, V: 4, Value: 9e-9, Before: 1.25e-9, Reason: ReasonNoImprovement},
		{Seq: 6, Kind: KindOracleEval, Oracle: "elmore", N: 10},
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

func TestDecodeRejectsUnknownFields(t *testing.T) {
	if _, err := DecodeEvent([]byte(`{"seq":1,"kind":"sweep_start","bogus":3}`)); err == nil {
		t.Error("expected an error for an unknown field")
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
				r.Emit(Event{Kind: KindOracleEval, Oracle: "elmore"})
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

func TestMultiFansOut(t *testing.T) {
	a, b := NewRing(4), NewRing(4)
	m := Multi{a, b}
	m.Emit(Event{Kind: KindSweepStart, Sweep: 1})
	if a.Len() != 1 || b.Len() != 1 {
		t.Errorf("fan-out: got %d, %d events, want 1, 1", a.Len(), b.Len())
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
