package trace

import (
	"fmt"
	"io"

	"nontree/internal/jsonl"
)

// Event kinds. Each kind populates a documented subset of Event's fields;
// unused fields stay at their zero value and are omitted from the
// canonical encoding.
const (
	// KindSweepStart opens one greedy sweep: Sweep numbers it (1-based),
	// N is the candidate count, Tap marks tap sweeps. Wire-widening
	// sweeps are recognizable by their candidate events, which carry the
	// proposed widths.
	KindSweepStart = "sweep_start"
	// KindCandidateScored reports one candidate's objective: Sweep and
	// Index locate it, U/V name the edge (for taps, the split edge with
	// Tap set and X/Y the tap point; for widenings, Width the proposed
	// width), Value is the objective with the candidate applied.
	KindCandidateScored = "candidate_scored"
	// KindEdgeAccepted commits a topology modification: U/V the edge
	// (for taps, the new source wire with Tap set and X/Y the tap point),
	// Before/After bracket the objective.
	KindEdgeAccepted = "edge_accepted"
	// KindEdgeRejected explains a non-acceptance: the best candidate of a
	// sweep that improved nothing (Reason "no_improvement"), or an edge
	// tried and reverted (Reason "reverted"). U/V name the edge, Value
	// its objective, Before the objective it failed to beat.
	KindEdgeRejected = "edge_rejected"
	// KindCandidatePruned reports a candidate skipped by the incremental
	// sweep's lower-bound pruning: Sweep and Index locate it exactly like
	// candidate_scored (pruned candidates consume an index), U/V name the
	// edge (Width the proposed width for widenings), Value is the proved
	// best-case objective lower bound, Before the cutoff it failed to
	// undercut (the sweep's acceptance threshold). A pruned candidate was
	// never evaluated by the oracle.
	KindCandidatePruned = "candidate_pruned"
	// KindWireSizeStep commits one accepted widening: U/V the edge,
	// Width the new width, Before/After the objective change.
	KindWireSizeStep = "wiresize_step"
)

// Rejection reasons for KindEdgeRejected.
const (
	// ReasonNoImprovement marks a sweep whose best candidate did not beat
	// the improvement threshold; the event carries that best candidate.
	ReasonNoImprovement = "no_improvement"
	// ReasonReverted marks an edge that was added, measured, and removed
	// again because the objective did not improve (H1's probe step).
	ReasonReverted = "reverted"
)

// Event is one execution-trace record. All fields except Elapsed are
// deterministic: for a fixed seed they are byte-identical in the canonical
// encoding at any Options.Workers value. Elapsed is wall-clock seconds
// since the tracer started and is excluded by Deterministic.
type Event struct {
	// Seq is the stable event ID, assigned by the tracer in emission
	// order starting at 1. Emission order is deterministic, so Seq is too.
	Seq int64
	// Kind is one of the Kind constants.
	Kind string
	// Sweep numbers the greedy sweep the event belongs to (1-based).
	Sweep int
	// Index is the candidate's position in its sweep's canonical order.
	Index int
	// U and V are the edge's endpoints (canonical order U < V).
	U, V int
	// Tap marks tap-sweep events; X and Y then locate the tap point (µm).
	Tap  bool
	X, Y float64
	// Width is a wire width (proposed for candidates, committed for
	// wiresize steps).
	Width int
	// N is the candidate count of a sweep_start event.
	N int64
	// Value is the candidate's objective score (seconds).
	Value float64
	// Before and After bracket an accepted modification's objective.
	Before, After float64
	// Reason is one of the Reason constants on edge_rejected events.
	Reason string
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

// jsonEvent is the wire form of Event in the package jsonl line format:
// floats are hex-literal strings so the encoding is bit-exact, and every
// zero-valued field is omitted so decode→encode reproduces canonical
// input bytes.
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
// every field bit-exactly (NaN payloads are canonicalized, and invalid
// UTF-8 in string fields is replaced by U+FFFD up front).
func (e Event) Encode() []byte {
	return jsonl.Marshal(jsonEvent{
		Seq:     e.Seq,
		Kind:    jsonl.CanonString(e.Kind),
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
		Reason:  jsonl.CanonString(e.Reason),
		Elapsed: jsonl.FormatFloat(e.Elapsed),
	})
}

// DecodeEvent parses one JSON line holding exactly one event; unknown
// keys and trailing data are rejected. Decoding is not byte-exact on
// arbitrary input (whitespace, key order and duplicate keys are not
// preserved), but canonicalization is a fixpoint: for any line that
// decodes, Encode of the result decodes to the same event bit for bit
// and re-encodes to the same bytes.
func DecodeEvent(line []byte) (Event, error) {
	var je jsonEvent
	if err := jsonl.Unmarshal(line, &je); err != nil {
		return Event{}, fmt.Errorf("trace: decoding event: %w", err)
	}
	var fp jsonl.FloatParser
	e := Event{
		Seq:     je.Seq,
		Kind:    je.Kind,
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
		Reason:  je.Reason,
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
