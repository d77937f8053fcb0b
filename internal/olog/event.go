// Package olog is the request-scoped wide-event telemetry layer of the
// serve daemon: exactly one Event per /route request, canonically encoded
// as JSONL with a bit-exact round trip, retained in a bounded Ring and
// exposed at GET /logs (DESIGN.md §16).
//
// The event is "wide" in the structured-logging sense: one record carries
// the whole request — identity (request id, net, options), outcome,
// per-phase latency breakdown, per-request obs counter deltas, and the
// exemplar links from the request id to its stored trace and to the
// Prometheus latency bucket the request landed in.
//
// Determinism contract: the phase timings, the latency bucket, the
// Workers echo and the render-time trace tombstone are the event's only
// nondeterministic fields. Event.Deterministic clears them, and every
// byte-identity guarantee (the serve tests pin Workers ∈ {1, 4,
// GOMAXPROCS}) is stated over that projection — the same contract package
// trace states for Event.Elapsed (DESIGN.md §11). The package itself
// never reads the clock; the serve layer stamps timings measured through
// the sanctioned obs helpers.
package olog

import (
	"fmt"
	"io"

	"nontree/internal/jsonl"
)

// Request outcomes. Exactly one event is emitted per /route request,
// whatever happens to it — the wide event is the one record that exists
// even when no trace was retained (shed, drained, timed-out requests).
const (
	// OutcomeOK marks a routed request answered 200.
	OutcomeOK = "ok"
	// OutcomeError marks a failed request: undecodable body, invalid
	// options, or a routing error (4xx/422).
	OutcomeError = "error"
	// OutcomeShed marks a request refused by the concurrency limiter (429).
	OutcomeShed = "shed"
	// OutcomeDrained marks a request refused because the server is
	// draining (503 with Retry-After).
	OutcomeDrained = "drained"
	// OutcomeTimeout marks a request whose handler outlived the request
	// timeout: the client already received the timeout 503, no trace is
	// retained, and the event is appended when the handler finishes.
	OutcomeTimeout = "timeout"
)

// Event is one request's wide event. All fields except the phase timings
// (*Seconds), LatencyBucket, Workers and TraceTombstoned are
// deterministic: for a fixed request they are byte-identical in the
// canonical encoding at any Workers value.
type Event struct {
	// Seq is the stable event ID, assigned by the ring in emission order
	// starting at 1.
	Seq int64
	// RequestID is the server-assigned request identity ("r%08d"), echoed
	// in the X-Request-ID response header and the /route reply.
	RequestID string
	// Net is the routed net's name ("" when anonymous or never decoded).
	Net string
	// Pins is the routed net's pin count (0 when never decoded).
	Pins int
	// Algo and Oracle echo the normalized route options.
	Algo, Oracle string
	// Workers echoes the per-request sweep worker knob — excluded from the
	// deterministic projection so the Workers-invariance guarantee can be
	// stated across different values.
	Workers int
	// Outcome is one of the Outcome constants.
	Outcome string
	// Status is the HTTP status the client was answered with.
	Status int
	// Error carries the error message of a non-ok outcome.
	Error string
	// TraceID links the request to its stored execution trace
	// (/traces/<id>); empty when no trace was retained.
	TraceID string
	// TraceEvents and TraceDropped report the trace ring occupancy.
	TraceEvents  int
	TraceDropped int64
	// TraceTombstoned is a render-time flag: /logs?request= sets it when
	// TraceID no longer resolves because the trace aged out of retention.
	// Stored events always carry false.
	TraceTombstoned bool
	// Per-request obs counter deltas, read from a private registry scoped
	// to this request (deterministic at any Workers value, DESIGN.md §10).
	Candidates  int64
	Accepted    int64
	Pruned      int64
	OracleEvals int64
	CacheHits   int64
	// Per-phase latency breakdown (wall-clock seconds, nondeterministic):
	// queue wait for a concurrency slot, body decode, greedy sweeps minus
	// oracle time, delay-oracle evaluations, trace storage. The phases sum
	// to TotalSeconds within the accounting slack of response writing.
	QueueSeconds  float64
	DecodeSeconds float64
	SweepSeconds  float64
	OracleSeconds float64
	StoreSeconds  float64
	// TotalSeconds is the request's total wall-clock time as stamped at
	// emission.
	TotalSeconds float64
	// LatencyBucket is the exemplar link into the serve.route.seconds
	// Prometheus histogram: the obs.BucketIndex bucket TotalSeconds
	// landed in.
	LatencyBucket int
}

// Deterministic returns the event with its nondeterministic fields
// (phase timings, latency bucket, Workers echo, render-time tombstone)
// cleared — the projection every byte-identity guarantee and Fingerprint
// operate on.
func (e Event) Deterministic() Event {
	e.Workers = 0
	e.TraceTombstoned = false
	e.QueueSeconds = 0
	e.DecodeSeconds = 0
	e.SweepSeconds = 0
	e.OracleSeconds = 0
	e.StoreSeconds = 0
	e.TotalSeconds = 0
	e.LatencyBucket = 0
	return e
}

// jsonEvent is the wire form of Event in the package jsonl line format
// shared with trace.Event: floats are hex-literal strings so the encoding
// is bit-exact, and every zero-valued field is omitted so decode→encode
// reproduces canonical input bytes.
type jsonEvent struct {
	Seq             int64  `json:"seq"`
	RequestID       string `json:"request_id"`
	Net             string `json:"net,omitempty"`
	Pins            int    `json:"pins,omitempty"`
	Algo            string `json:"algo,omitempty"`
	Oracle          string `json:"oracle,omitempty"`
	Workers         int    `json:"workers,omitempty"`
	Outcome         string `json:"outcome"`
	Status          int    `json:"status,omitempty"`
	Error           string `json:"error,omitempty"`
	TraceID         string `json:"trace_id,omitempty"`
	TraceEvents     int    `json:"trace_events,omitempty"`
	TraceDropped    int64  `json:"trace_dropped,omitempty"`
	TraceTombstoned bool   `json:"trace_tombstoned,omitempty"`
	Candidates      int64  `json:"candidates,omitempty"`
	Accepted        int64  `json:"accepted,omitempty"`
	Pruned          int64  `json:"pruned,omitempty"`
	OracleEvals     int64  `json:"oracle_evals,omitempty"`
	CacheHits       int64  `json:"cache_hits,omitempty"`
	QueueSeconds    string `json:"queue_s,omitempty"`
	DecodeSeconds   string `json:"decode_s,omitempty"`
	SweepSeconds    string `json:"sweep_s,omitempty"`
	OracleSeconds   string `json:"oracle_s,omitempty"`
	StoreSeconds    string `json:"store_s,omitempty"`
	TotalSeconds    string `json:"total_s,omitempty"`
	LatencyBucket   int    `json:"latency_bucket,omitempty"`
}

// Encode renders the event as one canonical JSON line (no trailing
// newline). The encoding is a pure function of the event: fixed key
// order, hex-literal floats, zero-valued fields omitted — so two equal
// events encode to identical bytes and Decode(Encode(e)) round-trips
// every field bit-exactly (NaN payloads are canonicalized, and invalid
// UTF-8 in string fields is replaced by U+FFFD up front).
func (e Event) Encode() []byte {
	return jsonl.Marshal(jsonEvent{
		Seq:             e.Seq,
		RequestID:       jsonl.CanonString(e.RequestID),
		Net:             jsonl.CanonString(e.Net),
		Pins:            e.Pins,
		Algo:            jsonl.CanonString(e.Algo),
		Oracle:          jsonl.CanonString(e.Oracle),
		Workers:         e.Workers,
		Outcome:         jsonl.CanonString(e.Outcome),
		Status:          e.Status,
		Error:           jsonl.CanonString(e.Error),
		TraceID:         jsonl.CanonString(e.TraceID),
		TraceEvents:     e.TraceEvents,
		TraceDropped:    e.TraceDropped,
		TraceTombstoned: e.TraceTombstoned,
		Candidates:      e.Candidates,
		Accepted:        e.Accepted,
		Pruned:          e.Pruned,
		OracleEvals:     e.OracleEvals,
		CacheHits:       e.CacheHits,
		QueueSeconds:    jsonl.FormatFloat(e.QueueSeconds),
		DecodeSeconds:   jsonl.FormatFloat(e.DecodeSeconds),
		SweepSeconds:    jsonl.FormatFloat(e.SweepSeconds),
		OracleSeconds:   jsonl.FormatFloat(e.OracleSeconds),
		StoreSeconds:    jsonl.FormatFloat(e.StoreSeconds),
		TotalSeconds:    jsonl.FormatFloat(e.TotalSeconds),
		LatencyBucket:   e.LatencyBucket,
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
		return Event{}, fmt.Errorf("olog: decoding event: %w", err)
	}
	var fp jsonl.FloatParser
	e := Event{
		Seq:             je.Seq,
		RequestID:       je.RequestID,
		Net:             je.Net,
		Pins:            je.Pins,
		Algo:            je.Algo,
		Oracle:          je.Oracle,
		Workers:         je.Workers,
		Outcome:         je.Outcome,
		Status:          je.Status,
		Error:           je.Error,
		TraceID:         je.TraceID,
		TraceEvents:     je.TraceEvents,
		TraceDropped:    je.TraceDropped,
		TraceTombstoned: je.TraceTombstoned,
		Candidates:      je.Candidates,
		Accepted:        je.Accepted,
		Pruned:          je.Pruned,
		OracleEvals:     je.OracleEvals,
		CacheHits:       je.CacheHits,
		QueueSeconds:    fp.Parse(je.QueueSeconds, "queue_s"),
		DecodeSeconds:   fp.Parse(je.DecodeSeconds, "decode_s"),
		SweepSeconds:    fp.Parse(je.SweepSeconds, "sweep_s"),
		OracleSeconds:   fp.Parse(je.OracleSeconds, "oracle_s"),
		StoreSeconds:    fp.Parse(je.StoreSeconds, "store_s"),
		TotalSeconds:    fp.Parse(je.TotalSeconds, "total_s"),
		LatencyBucket:   je.LatencyBucket,
	}
	if fp.Err != nil {
		return Event{}, fmt.Errorf("olog: decoding event: %w", fp.Err)
	}
	return e, nil
}

// WriteJSONL writes the events as canonical JSONL, one event per line.
func WriteJSONL(w io.Writer, events []Event) error {
	return jsonl.Write(w, events)
}

// ReadJSONL parses a JSONL log. Blank lines are skipped so hand-edited
// fixtures stay readable.
func ReadJSONL(r io.Reader) ([]Event, error) {
	events, err := jsonl.Read(r, DecodeEvent)
	if err != nil {
		return nil, fmt.Errorf("olog: %w", err)
	}
	return events, nil
}

// Fingerprint renders the deterministic projection of the events as
// canonical JSONL. Two request sequences with identical outcomes produce
// byte-identical fingerprints at any Workers value — the wide-event
// analogue of trace.Fingerprint.
func Fingerprint(events []Event) string {
	return jsonl.Fingerprint(events)
}
