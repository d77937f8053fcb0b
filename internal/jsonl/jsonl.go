// Package jsonl is the canonical line codec shared by the execution
// traces (package trace) and the wide-event request log (package olog):
// one JSON object per line, fixed key order, hex-literal floats, zero
// fields omitted, so equal events encode to identical bytes and a
// decode→encode cycle reproduces them (DESIGN.md §11, §16).
//
// Each client package owns its event type and wire schema (a struct with
// string-typed float fields tagged omitempty) and maps between the two
// with FormatFloat, CanonString and FloatParser; this package owns the
// JSON framing, the line reader and writer, and the fingerprint.
package jsonl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Event is an event type the codec can write: Encode renders one
// canonical line without its trailing newline.
type Event interface {
	Encode() []byte
}

// Projected is an Event with a deterministic projection: Deterministic
// clears the fields that vary between runs of the same workload.
type Projected[E any] interface {
	Event
	Deterministic() E
}

// FormatFloat renders a float as a hex literal ("0x1.8p+01"), the exact,
// locale-free form strconv.ParseFloat reads back bit-identically. The
// zero bit pattern renders as "" (an omitempty field is then omitted, and
// -0 survives as "-0x0p+00"); NaNs are canonicalized, so encoded events
// never carry NaN payloads.
func FormatFloat(v float64) string {
	if math.Float64bits(v) == 0 {
		return ""
	}
	if math.IsNaN(v) {
		return "NaN"
	}
	return strconv.FormatFloat(v, 'x', -1, 64)
}

// CanonString maps a string to the canonical form the JSON layer
// preserves: invalid UTF-8 is replaced by U+FFFD up front, so the first
// encoding already carries the bytes every later decode→encode cycle
// reproduces. Event string fields are fixed constants or server-made
// identifiers in practice, making this a no-op on real events.
func CanonString(s string) string {
	return strings.ToValidUTF8(s, "�")
}

// FloatParser reads the FormatFloat fields of one decoded event, keeping
// the first error so a decoder can parse every field and check once.
type FloatParser struct {
	// Err is the first parse failure, naming the wire field.
	Err error
}

// Parse returns the float a FormatFloat field encodes ("" is +0). After
// a failure it returns 0 and leaves Err unchanged.
func (p *FloatParser) Parse(s, field string) float64 {
	if s == "" || p.Err != nil {
		return 0
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		p.Err = fmt.Errorf("field %q: %w", field, err)
	}
	return v
}

// Marshal encodes a wire-schema value as one canonical line: no HTML
// escaping and no trailing newline. It panics if v cannot be marshaled,
// which for a struct of ints, bools and strings cannot happen.
func Marshal(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		panic(fmt.Sprintf("jsonl: encoding %T: %v", v, err))
	}
	return bytes.TrimRight(buf.Bytes(), "\n")
}

// Unmarshal decodes one line into a wire-schema value. It rejects
// unknown keys and anything after the first JSON value, so a line never
// carries data its event drops.
func Unmarshal(line []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// Token, not More: More reports false before a stray '}' or ']'.
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

// Write writes the events as canonical JSONL, one event per line.
func Write[E Event](w io.Writer, events []E) error {
	bw := bufio.NewWriter(w)
	for _, e := range events {
		if _, err := bw.Write(e.Encode()); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses JSONL with decode, one event per line. Blank lines are
// skipped so hand-edited fixtures stay readable; a decode error is
// reported with its 1-based line number.
func Read[E any](r io.Reader, decode func([]byte) (E, error)) ([]E, error) {
	var events []E
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 {
			continue
		}
		e, err := decode(b)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading: %w", err)
	}
	return events, nil
}

// Fingerprint renders the deterministic projection of the events as
// canonical JSONL. Two runs with identical decisions produce
// byte-identical fingerprints however their nondeterministic fields
// differ.
func Fingerprint[E Projected[E]](events []E) string {
	var buf bytes.Buffer
	for _, e := range events {
		buf.Write(e.Deterministic().Encode())
		buf.WriteByte('\n')
	}
	return buf.String()
}
