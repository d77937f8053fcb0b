package trace

import (
	"fmt"
	"io"
	"strconv"

	"nontree/internal/jsonl"
)

// Kind is an event's type. Each kind populates a documented subset of
// Event's fields; unused fields stay at their zero value and are omitted
// from the canonical encoding. The zero Kind is no kind; it encodes as "".
type Kind uint8

// Event kinds, named on the wire by String.
const (
	// KindSweepStart opens one greedy sweep: Sweep numbers it (1-based),
	// N is the candidate count, Tap marks tap sweeps. Wire-widening
	// sweeps are recognizable by their candidate events, which carry the
	// proposed widths.
	KindSweepStart Kind = iota + 1
	// KindCandidateScored reports one candidate's objective: Sweep and
	// Index locate it, U/V name the edge (for taps, the split edge with
	// Tap set and X/Y the tap point; for widenings, Width the proposed
	// width), Value is the objective with the candidate applied.
	KindCandidateScored
	// KindEdgeAccepted commits a topology modification: U/V the edge
	// (for taps, the new source wire with Tap set and X/Y the tap point),
	// Before/After bracket the objective.
	KindEdgeAccepted
	// KindEdgeRejected explains a non-acceptance: the best candidate of a
	// sweep that improved nothing (Reason no_improvement), or an edge
	// tried and reverted (Reason reverted). U/V name the edge, Value its
	// objective, Before the objective it failed to beat.
	KindEdgeRejected
	// KindCandidatePruned reports a candidate the incremental sweep pruned
	// by a proved lower bound: Sweep and Index locate it exactly like
	// candidate_scored (pruned candidates consume an index), U/V name the
	// edge (for taps, the split edge with Tap set and X/Y the tap point;
	// Width the proposed width for widenings), Value is the lower bound on
	// its objective. Before is what the bound could not beat: for a
	// widening, the sweep's acceptance threshold; for an edge or tap whose
	// probe stopped early, the running minimum of the values scored before
	// it in its scan, and Value is then the max over the sinks the probe
	// visited. A pruned candidate was never evaluated by the oracle.
	KindCandidatePruned
	// KindWireSizeStep commits one accepted widening: U/V the edge,
	// Width the new width, Before/After the objective change.
	KindWireSizeStep
)

var kindNames = [...]string{"", "sweep_start", "candidate_scored", "edge_accepted",
	"edge_rejected", "candidate_pruned", "wiresize_step"}

// String returns the kind's wire name, or "Kind(n)" for a value outside
// the constants, which DecodeEvent rejects.
func (k Kind) String() string { return enumName(kindNames[:], "Kind", k) }

// Reason explains an edge_rejected event. The zero Reason is no reason; it
// is omitted from the canonical encoding.
type Reason uint8

// Rejection reasons for KindEdgeRejected, named on the wire by String.
const (
	// ReasonNoImprovement marks a sweep whose best candidate did not beat
	// the improvement threshold; the event carries that best candidate.
	ReasonNoImprovement Reason = iota + 1
	// ReasonReverted marks an edge that was added, measured, and removed
	// again because the objective did not improve (H1's probe step).
	ReasonReverted
)

var reasonNames = [...]string{"", "no_improvement", "reverted"}

// String returns the reason's wire name, or "Reason(n)" for a value
// outside the constants, which DecodeEvent rejects.
func (r Reason) String() string { return enumName(reasonNames[:], "Reason", r) }

// enumName returns v's wire name, or typ(v) when names has none for it.
func enumName[E ~uint8](names []string, typ string, v E) string {
	if int(v) < len(names) {
		return names[v]
	}
	return typ + "(" + strconv.Itoa(int(v)) + ")"
}

// parseEnum maps a wire name back to its value, naming the wire field
// when the name is unknown.
func parseEnum[E ~uint8](names []string, field, name string) (E, error) {
	for v, n := range names {
		if n == name {
			return E(v), nil
		}
	}
	return 0, fmt.Errorf("field %q: unknown name %q", field, name)
}

// Event is one execution-trace record. All fields except Elapsed are
// deterministic: for a fixed seed they are byte-identical in the canonical
// encoding at any Options.Workers value. Elapsed is wall-clock seconds
// since the tracer started and is excluded by Deterministic. The struct
// holds no pointers, so the chunks a Ring stores events in are never
// scanned by the garbage collector.
type Event struct {
	// Seq is the stable event ID, assigned by the tracer in emission
	// order starting at 1. Emission order is deterministic, so Seq is too.
	Seq int64
	// Kind is one of the Kind constants.
	Kind Kind
	// Reason is one of the Reason constants on edge_rejected events.
	Reason Reason
	// Tap marks tap-sweep events; X and Y then locate the tap point.
	Tap bool
	// Sweep numbers the greedy sweep the event belongs to (1-based).
	Sweep int
	// Index is the candidate's position in its sweep's canonical order.
	Index int
	// U and V are the edge's endpoints (canonical order U < V).
	U, V int
	// Width is a wire width (proposed for candidates, committed for
	// wiresize steps).
	Width int
	// N is the candidate count of a sweep_start event.
	N int64
	// X and Y locate a tap point (µm) on tap-sweep events.
	X, Y float64
	// Value is the candidate's objective score (seconds).
	Value float64
	// Before and After bracket an accepted modification's objective.
	Before, After float64
	// Elapsed is wall-clock seconds since the tracer started — the one
	// nondeterministic field, excluded from every determinism comparison.
	Elapsed float64
}

// Deterministic returns the event with its nondeterministic field
// (Elapsed) cleared — the projection every byte-identity guarantee and
// the replay differ operate on.
func (e Event) Deterministic() Event {
	e.Elapsed = 0
	return e
}

// jsonEvent is the wire form of Event that DecodeEvent reads, in the
// package jsonl line format: floats are hex-literal strings so the
// encoding is bit-exact, and every zero-valued field is omitted so
// decode→encode reproduces canonical input bytes. Append writes the same
// keys in the same order.
type jsonEvent struct {
	Seq     int64  `json:"seq"`
	Kind    string `json:"kind"`
	Sweep   int    `json:"sweep,omitempty"`
	Index   int    `json:"index,omitempty"`
	U       int    `json:"u,omitempty"`
	V       int    `json:"v,omitempty"`
	Tap     bool   `json:"tap,omitempty"`
	X       string `json:"x,omitempty"`
	Y       string `json:"y,omitempty"`
	Width   int    `json:"width,omitempty"`
	N       int64  `json:"n,omitempty"`
	Value   string `json:"value,omitempty"`
	Before  string `json:"before,omitempty"`
	After   string `json:"after,omitempty"`
	Reason  string `json:"reason,omitempty"`
	Elapsed string `json:"elapsed,omitempty"`
}

// Encode renders the event as one canonical JSON line (no trailing
// newline). The encoding is a pure function of the event: fixed key
// order, hex-literal floats, zero-valued fields omitted — so two equal
// events encode to identical bytes and Decode(Encode(e)) round-trips
// every field bit-exactly (NaN payloads are canonicalized).
func (e Event) Encode() []byte { return e.Append(nil) }

// Append appends Encode's bytes to b and returns the extended buffer.
func (e Event) Append(b []byte) []byte {
	l := jsonl.Begin(b)
	l.Int("seq", e.Seq)
	l.String("kind", e.Kind.String())
	l.OptInt("sweep", int64(e.Sweep))
	l.OptInt("index", int64(e.Index))
	l.OptInt("u", int64(e.U))
	l.OptInt("v", int64(e.V))
	l.Bool("tap", e.Tap)
	l.Float("x", e.X)
	l.Float("y", e.Y)
	l.OptInt("width", int64(e.Width))
	l.OptInt("n", e.N)
	l.Float("value", e.Value)
	l.Float("before", e.Before)
	l.Float("after", e.After)
	l.OptString("reason", e.Reason.String())
	l.Float("elapsed", e.Elapsed)
	return l.End()
}

// DecodeEvent parses one JSON line holding exactly one event; unknown
// keys, unknown kind and reason names, and trailing data are rejected.
// Decoding is not byte-exact on arbitrary input (whitespace, key order
// and duplicate keys are not preserved), but canonicalization is a
// fixpoint: for any line that decodes, Encode of the result decodes to
// the same event bit for bit and re-encodes to the same bytes.
func DecodeEvent(line []byte) (Event, error) {
	var je jsonEvent
	if err := jsonl.Unmarshal(line, &je); err != nil {
		return Event{}, fmt.Errorf("trace: decoding event: %w", err)
	}
	kind, err := parseEnum[Kind](kindNames[:], "kind", je.Kind)
	if err != nil {
		return Event{}, fmt.Errorf("trace: decoding event: %w", err)
	}
	reason, err := parseEnum[Reason](reasonNames[:], "reason", je.Reason)
	if err != nil {
		return Event{}, fmt.Errorf("trace: decoding event: %w", err)
	}
	var fp jsonl.FloatParser
	e := Event{
		Seq:     je.Seq,
		Kind:    kind,
		Sweep:   je.Sweep,
		Index:   je.Index,
		U:       je.U,
		V:       je.V,
		Tap:     je.Tap,
		X:       fp.Parse(je.X, "x"),
		Y:       fp.Parse(je.Y, "y"),
		Width:   je.Width,
		N:       je.N,
		Value:   fp.Parse(je.Value, "value"),
		Before:  fp.Parse(je.Before, "before"),
		After:   fp.Parse(je.After, "after"),
		Reason:  reason,
		Elapsed: fp.Parse(je.Elapsed, "elapsed"),
	}
	if fp.Err != nil {
		return Event{}, fmt.Errorf("trace: decoding event: %w", fp.Err)
	}
	return e, nil
}

// WriteJSONL writes the events as canonical JSONL, one event per line.
func WriteJSONL(w io.Writer, events []Event) error {
	return jsonl.Write(w, events)
}

// ReadJSONL parses a JSONL trace. Blank lines are skipped so hand-edited
// fixtures stay readable.
func ReadJSONL(r io.Reader) ([]Event, error) {
	events, err := jsonl.Read(r, DecodeEvent)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return events, nil
}

// Fingerprint renders the deterministic projection of the events as
// canonical JSONL. Two runs with identical decisions produce byte-
// identical fingerprints at any worker count — the trace analogue of
// obs.Snapshot.Fingerprint.
func Fingerprint(events []Event) string {
	return jsonl.Fingerprint(events)
}
