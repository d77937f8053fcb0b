package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"unicode/utf8"

	"nontree/internal/geom"
	"nontree/internal/jsonl"
	"nontree/internal/netlist"
)

// The /route codec (DESIGN.md §16). A scanner decodes the canonical
// RouteRequest shape and an appender encodes RouteResponse, both without
// reflection. encoding/json stays the referee: any body the scanner does
// not fully understand, malformed ones included, is decoded by json.Decoder
// exactly as before, and a reply the appender cannot write byte for byte
// as json.Encoder would is encoded by json.Encoder, so accepted values,
// error statuses, error texts and reply bytes are those of encoding/json by
// construction (FuzzRouteRequestDecode, FuzzRouteResponseEncode).

// ReadRouteRequest reads one RouteRequest from r. It accepts, rejects and
// reports exactly what a json.Decoder with DisallowUnknownFields does: it
// reads r to its end (or first error) and scans the canonical shape — a
// net with name and pins of {"X":…,"Y":…}, plus algo, oracle, workers and
// max_edges, with exact-case keys, each at most once, and no escapes or
// null — and hands anything else, with the same bytes and the same read
// error, to json.Decoder. As with json.Decoder, bytes after the request
// object are not examined.
func ReadRouteRequest(r io.Reader) (RouteRequest, error) {
	bp := jsonl.GetBuffer()
	defer jsonl.PutBuffer(bp)
	b, err := readAll(r, *bp)
	*bp = b
	if err == nil {
		if req, ok := scanRouteRequest(b); ok {
			return req, nil
		}
		return decodeRouteRequest(bytes.NewReader(b))
	}
	return decodeRouteRequest(io.MultiReader(bytes.NewReader(b), errReader{err}))
}

// decodeRouteRequest is the reflection decoder, the referee of the scanner.
func decodeRouteRequest(r io.Reader) (RouteRequest, error) {
	var req RouteRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// readAll appends what r yields to b until EOF (a nil error) or the first
// other error, which it returns with the bytes read before it.
func readAll(r io.Reader, b []byte) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// errReader replays a read error after the bytes read before it.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// scanner walks a request body; every method reports false for anything
// outside the canonical shape, leaving the body to encoding/json.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next skips whitespace and consumes c.
func (s *scanner) next(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str returns the raw bytes of a string with no escapes and, if not ASCII,
// valid UTF-8: the bytes encoding/json would decode it to.
func (s *scanner) str() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	start, ascii := s.i, true
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			v := s.b[start:s.i]
			s.i++
			return v, ascii || utf8.Valid(v)
		case c < 0x20 || c == '\\':
			return nil, false
		case c >= 0x80:
			ascii = false
		}
	}
	return nil, false
}

// object scans '{' key ':' value (',' key ':' value)* '}' where every key
// is one of keys, at most once, calling member with each key once its
// colon is consumed; member scans the value.
func (s *scanner) object(keys []string, member func(key string) bool) bool {
	if !s.next('{') {
		return false
	}
	if s.next('}') {
		return true
	}
	var seen uint
	for {
		raw, ok := s.str()
		if !ok || !s.next(':') {
			return false
		}
		k := 0
		for k < len(keys) && keys[k] != string(raw) {
			k++
		}
		if k == len(keys) || seen&(1<<k) != 0 || !member(keys[k]) {
			return false
		}
		seen |= 1 << k
		if s.next('}') {
			return true
		}
		if !s.next(',') {
			return false
		}
	}
}

// number returns a number literal in JSON grammar and whether it is an
// integer (no fraction or exponent).
func (s *scanner) number() (lit []byte, integer, ok bool) {
	s.ws()
	b, start := s.b, s.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
	default:
		return nil, false, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		integer = false
		i++
		if i == len(b) || b[i] < '0' || b[i] > '9' {
			return nil, false, false
		}
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integer = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || b[i] < '0' || b[i] > '9' {
			return nil, false, false
		}
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
	}
	s.i = i
	return b[start:i], integer, true
}

// float scans a number as encoding/json decodes it into a float64.
func (s *scanner) float() (float64, bool) {
	lit, _, ok := s.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	return v, err == nil
}

// int scans a number as encoding/json decodes it into an int.
func (s *scanner) int() (int, bool) {
	lit, integer, ok := s.number()
	if !ok || !integer {
		return 0, false
	}
	v, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	return int(v), err == nil
}

// text scans a string field, returning the wire-name constant it equals
// (so the common values do not allocate) or a copy of it.
func (s *scanner) text(consts ...string) (string, bool) {
	v, ok := s.str()
	if !ok {
		return "", false
	}
	for _, c := range consts {
		if string(v) == c {
			return c, true
		}
	}
	return string(v), true
}

// The keys of the canonical shape, in exact case.
var (
	requestKeys = []string{"net", "algo", "oracle", "workers", "max_edges"}
	netKeys     = []string{"name", "pins"}
	pinKeys     = []string{"X", "Y"}
)

// scanRouteRequest decodes the canonical RouteRequest shape, reporting
// false for any body outside it.
func scanRouteRequest(b []byte) (req RouteRequest, ok bool) {
	s := scanner{b: b}
	ok = s.object(requestKeys, func(key string) (ok bool) {
		switch key {
		case "net":
			req.Net = new(netlist.Net)
			return s.net(req.Net)
		case "algo":
			req.Algo, ok = s.text(AlgoLDRG, AlgoSLDRG, AlgoTaps, AlgoH1, AlgoH2, AlgoH3)
		case "oracle":
			req.Oracle, ok = s.text(OracleElmore, OracleTwoPole, OracleSpice)
		case "workers":
			req.Workers, ok = s.int()
		case "max_edges":
			req.MaxEdges, ok = s.int()
		}
		return ok
	})
	return req, ok
}

// net scans a net object.
func (s *scanner) net(n *netlist.Net) bool {
	return s.object(netKeys, func(key string) (ok bool) {
		if key == "name" {
			n.Name, ok = s.text()
			return ok
		}
		return s.pins(n)
	})
}

// pins scans a pin array. Like encoding/json, an empty array decodes to an
// empty, non-nil slice.
func (s *scanner) pins(n *netlist.Net) bool {
	if !s.next('[') {
		return false
	}
	n.Pins = []geom.Point{}
	if s.next(']') {
		return true
	}
	for {
		var p geom.Point
		ok := s.object(pinKeys, func(key string) (ok bool) {
			if key == "X" {
				p.X, ok = s.float()
			} else {
				p.Y, ok = s.float()
			}
			return ok
		})
		if !ok {
			return false
		}
		n.Pins = append(n.Pins, p)
		if s.next(']') {
			return true
		}
		if !s.next(',') {
			return false
		}
	}
}

// writeRoute writes a /route reply as writeJSON would: the appender's
// bytes, or writeJSON itself for a reply the appender leaves to it.
func writeRoute(w http.ResponseWriter, resp *RouteResponse) {
	bp := jsonl.GetBuffer()
	defer jsonl.PutBuffer(bp)
	b, ok := appendRouteResponse(*bp, resp)
	*bp = b
	if !ok {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

// appendRouteResponse appends the bytes a json.Encoder with HTML escaping
// off writes for resp, newline included. It reports false, for
// encoding/json to take over, when a float is not finite (json.Encoder
// then fails and writes nothing) or a string needs escaping.
func appendRouteResponse(b []byte, resp *RouteResponse) ([]byte, bool) {
	e := replyEncoder{buf: b, ok: true}
	e.buf = append(e.buf, '{')
	if res := resp.RouteResult; res != nil {
		e.str("algo", res.Algo)
		e.str("oracle", res.Oracle)
		e.key("nodes")
		if res.Nodes == nil {
			e.buf = append(e.buf, "null"...)
		} else {
			e.buf = append(e.buf, '[')
			for i, n := range res.Nodes {
				if i > 0 {
					e.buf = append(e.buf, ',')
				}
				e.more = false
				e.buf = append(e.buf, '{')
				e.float("x", n.X)
				e.float("y", n.Y)
				if n.Steiner {
					e.key("steiner")
					e.buf = append(e.buf, "true"...)
				}
				e.buf = append(e.buf, '}')
			}
			e.buf = append(e.buf, ']')
		}
		e.edges("edges", res.Edges)
		e.edges("added_edges", res.AddedEdges)
		e.float("initial_objective", res.InitialObjective)
		e.float("final_objective", res.FinalObjective)
		e.int("evaluations", int64(res.Evaluations))
	}
	e.str("request_id", resp.RequestID)
	e.str("trace_id", resp.TraceID)
	e.int("trace_events", int64(resp.TraceEvents))
	if resp.TraceDropped != 0 {
		e.int("trace_dropped", resp.TraceDropped)
	}
	if p := resp.Phases; p != nil {
		e.key("phases")
		e.more = false
		e.buf = append(e.buf, '{')
		e.float("queue_seconds", p.QueueSeconds)
		e.float("decode_seconds", p.DecodeSeconds)
		e.float("sweep_seconds", p.SweepSeconds)
		e.float("oracle_seconds", p.OracleSeconds)
		e.float("store_seconds", p.StoreSeconds)
		e.float("total_seconds", p.TotalSeconds)
		e.buf = append(e.buf, '}')
	}
	e.buf = append(e.buf, '}', '\n')
	return e.buf, e.ok
}

// replyEncoder appends JSON members in the jsonl.Line style, with
// encoding/json's number forms.
type replyEncoder struct {
	buf  []byte
	more bool // the open object has a member
	ok   bool // every value was one the encoder can write
}

func (e *replyEncoder) key(k string) {
	if e.more {
		e.buf = append(e.buf, ',')
	}
	e.more = true
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, k...)
	e.buf = append(e.buf, '"', ':')
}

func (e *replyEncoder) int(k string, v int64) {
	e.key(k)
	e.buf = strconv.AppendInt(e.buf, v, 10)
}

// str writes a string member that needs no escaping; any other string
// clears ok.
func (e *replyEncoder) str(k, s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' {
			e.ok = false
			return
		}
	}
	e.key(k)
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, s...)
	e.buf = append(e.buf, '"')
}

// float writes a float member as encoding/json does: the shortest
// representation, in 'e' form below 1e-6 and from 1e21 up, with a
// one-digit negative exponent unpadded. A non-finite value clears ok.
func (e *replyEncoder) float(k string, v float64) {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		e.ok = false
		return
	}
	e.key(k)
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.buf = strconv.AppendFloat(e.buf, v, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(e.buf); n >= 4 && e.buf[n-4] == 'e' && e.buf[n-3] == '-' && e.buf[n-2] == '0' {
			e.buf[n-2] = e.buf[n-1]
			e.buf = e.buf[:n-1]
		}
	}
}

func (e *replyEncoder) edges(k string, edges []EdgeRef) {
	e.key(k)
	if edges == nil {
		e.buf = append(e.buf, "null"...)
		return
	}
	e.buf = append(e.buf, '[')
	for i, ed := range edges {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = append(e.buf, `{"u":`...)
		e.buf = strconv.AppendInt(e.buf, int64(ed.U), 10)
		e.buf = append(e.buf, `,"v":`...)
		e.buf = strconv.AppendInt(e.buf, int64(ed.V), 10)
		e.buf = append(e.buf, '}')
	}
	e.buf = append(e.buf, ']')
}
