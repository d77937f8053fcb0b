// Package jsonl is the canonical line codec shared by the execution
// traces (package trace) and the wide-event request log (package olog):
// one JSON object per line, fixed key order, hex-literal floats, zero
// fields omitted, so equal events encode to identical bytes and a
// decode→encode cycle reproduces them (DESIGN.md §11, §16).
//
// Each client package owns its event type. It encodes an event with Line,
// which appends the canonical bytes without reflection, and decodes one
// through a wire-schema struct (string-typed float fields, tagged
// omitempty) with Unmarshal and FloatParser; this package owns the JSON
// framing, the line reader and writer, the fingerprint, and the pool of
// buffers whole bodies are encoded in.
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
	"sync"
)

// Event is an event type the codec can write: Append appends one
// canonical line, without its trailing newline, to b and returns the
// extended buffer.
type Event interface {
	Append(b []byte) []byte
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
// never carry NaN payloads. Line.Float appends the same form without
// allocating; this string form is what the encoders' reflection referees
// put in their wire-schema structs.
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

// Line appends one canonical JSON object to a buffer, one member per
// method call, in call order. Keys are written as given and must need no
// escaping. Int and String always write their member; OptInt, OptString,
// Bool and Float omit a zero value (for Float the zero bit pattern, so -0
// is written), as encoding/json omits an omitempty field of a wire schema.
// The bytes are those encoding/json writes for the wire schema with HTML
// escaping off.
type Line struct {
	buf  []byte
	more bool // a member has been written
}

// Begin starts a line at the end of b.
func Begin(b []byte) Line { return Line{buf: append(b, '{')} }

// End closes the object and returns the extended buffer.
func (l *Line) End() []byte { return append(l.buf, '}') }

func (l *Line) key(k string) {
	if l.more {
		l.buf = append(l.buf, ',')
	}
	l.more = true
	l.buf = append(l.buf, '"')
	l.buf = append(l.buf, k...)
	l.buf = append(l.buf, '"', ':')
}

// Int writes an integer member.
func (l *Line) Int(k string, v int64) {
	l.key(k)
	l.buf = strconv.AppendInt(l.buf, v, 10)
}

// OptInt writes an integer member unless v is 0.
func (l *Line) OptInt(k string, v int64) {
	if v != 0 {
		l.Int(k, v)
	}
}

// String writes a string member in canonical form (see CanonString).
func (l *Line) String(k, s string) {
	l.key(k)
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' {
			l.buf = appendQuoted(l.buf, CanonString(s))
			return
		}
	}
	l.buf = append(l.buf, '"')
	l.buf = append(l.buf, s...)
	l.buf = append(l.buf, '"')
}

// appendQuoted appends s as encoding/json quotes it with HTML escaping
// off: the path of the strings that need escaping or are not ASCII.
func appendQuoted(b []byte, s string) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(s) // encoding a string cannot fail
	return append(b, bytes.TrimSuffix(buf.Bytes(), []byte("\n"))...)
}

// OptString writes a string member unless s is empty.
func (l *Line) OptString(k, s string) {
	if s != "" {
		l.String(k, s)
	}
}

// Bool writes a true member; false is omitted.
func (l *Line) Bool(k string, v bool) {
	if v {
		l.key(k)
		l.buf = append(l.buf, "true"...)
	}
}

// Float writes a float member in FormatFloat's form, omitted for the zero
// bit pattern.
func (l *Line) Float(k string, v float64) {
	if math.Float64bits(v) == 0 {
		return
	}
	l.key(k)
	l.buf = append(l.buf, '"')
	if math.IsNaN(v) {
		l.buf = append(l.buf, "NaN"...)
	} else {
		l.buf = strconv.AppendFloat(l.buf, v, 'x', -1, 64)
	}
	l.buf = append(l.buf, '"')
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

// maxPooledBuffer is the largest buffer PutBuffer keeps for reuse, so one
// huge export does not pin its memory.
const maxPooledBuffer = 1 << 20

var buffers = sync.Pool{New: func() any { return new([]byte) }}

// GetBuffer returns an empty byte buffer from a pool shared by the
// encoders that build a whole body before writing it (a ring encoded
// under its lock, a /route reply). Return it with PutBuffer once written,
// storing the grown slice back through the pointer.
func GetBuffer() *[]byte { return buffers.Get().(*[]byte) }

// PutBuffer returns a buffer from GetBuffer to the pool, unless it has
// grown beyond maxPooledBuffer.
func PutBuffer(b *[]byte) {
	if cap(*b) <= maxPooledBuffer {
		*b = (*b)[:0]
		buffers.Put(b)
	}
}

// writeChunk is how many encoded bytes Write gathers before passing them
// to its writer.
const writeChunk = 32 << 10

// Write writes the events as canonical JSONL, one event per line, encoding
// them all into one reused buffer.
func Write[E Event](w io.Writer, events []E) error {
	var buf []byte
	for i := range events {
		buf = append(events[i].Append(buf), '\n')
		if len(buf) >= writeChunk || i == len(events)-1 {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	return nil
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
	var buf []byte
	for _, e := range events {
		buf = append(e.Deterministic().Append(buf), '\n')
	}
	return string(buf)
}
