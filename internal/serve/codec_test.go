package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"nontree/internal/geom"
	"nontree/internal/netlist"
)

// canonicalBody is the body json.Marshal writes for a 5-pin request.
const canonicalBody = `{"net":{"name":"n","pins":[{"X":0,"Y":0},{"X":9000,"Y":4000},{"X":3000.5,"Y":8000},{"X":7500,"Y":1.5e-7},{"X":-5200,"Y":6600}]},"algo":"ldrg","oracle":"elmore","workers":4,"max_edges":2}`

// sameRequest reports how got differs from want, comparing floats by bits
// and telling nil slices and pointers from empty ones.
func sameRequest(got, want RouteRequest) error {
	if got.RouteOptions != want.RouteOptions {
		return fmt.Errorf("options %+v, want %+v", got.RouteOptions, want.RouteOptions)
	}
	if (got.Net == nil) != (want.Net == nil) {
		return fmt.Errorf("net %v, want %v", got.Net, want.Net)
	}
	if got.Net == nil {
		return nil
	}
	g, w := got.Net, want.Net
	if g.Name != w.Name || (g.Pins == nil) != (w.Pins == nil) || len(g.Pins) != len(w.Pins) {
		return fmt.Errorf("net %q with %d pins (nil %t), want %q with %d (nil %t)",
			g.Name, len(g.Pins), g.Pins == nil, w.Name, len(w.Pins), w.Pins == nil)
	}
	for i := range g.Pins {
		if math.Float64bits(g.Pins[i].X) != math.Float64bits(w.Pins[i].X) ||
			math.Float64bits(g.Pins[i].Y) != math.Float64bits(w.Pins[i].Y) {
			return fmt.Errorf("pin %d %v, want %v", i, g.Pins[i], w.Pins[i])
		}
	}
	return nil
}

// TestScanRouteRequestAcceptsCanonical: the scanner, not the fallback,
// decodes what json.Marshal writes for real requests, so the fast path is
// the one the daemon and the benchmark take.
func TestScanRouteRequestAcceptsCanonical(t *testing.T) {
	bodies := []string{canonicalBody, `{"net":{"pins":[]}}`, " {\n\t\"net\" : { } } "}
	for _, pins := range []int{2, 10, 30} {
		req := RouteRequest{Net: testNet(t, int64(pins), pins), RouteOptions: RouteOptions{Algo: AlgoTaps}}
		req.Net.Name = "rand-ä"
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, string(b))
	}
	for _, body := range bodies {
		got, ok := scanRouteRequest([]byte(body))
		if !ok {
			t.Errorf("scanner declined %s", body)
			continue
		}
		want, err := decodeRouteRequest(strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if err := sameRequest(got, want); err != nil {
			t.Errorf("%s: %v", body, err)
		}
	}
}

// FuzzRouteRequestDecode referees ReadRouteRequest against a json.Decoder
// with DisallowUnknownFields: an input accepted by either is accepted by
// both and decodes to the same value, float bits included; a rejected
// input gets the same error text, and through the handler the same 400
// with that text.
func FuzzRouteRequestDecode(f *testing.F) {
	for _, seed := range []string{
		canonicalBody,
		`{"net":{"name":"a","pins":[{"X":1,"Y":2},{"X":3,"Y":4}]}}`,
		`{"net":{"pins":[]}}`,
		`{"net":{}}`,
		`{}`,
		``,
		`   `,
		`{"NET":{"pins":[{"X":1,"Y":2}]}}`,
		`{"net":{"Pins":[{"X":1,"Y":2}]}}`,
		`{"net":{"pins":[{"x":1,"y":2}]}}`,
		`{"Algo":"ldrg"}`,
		`{"algo":"ldrg","algo":"h3"}`,
		`{"net":{"name":"a"},"net":{"pins":[{"X":1}]}}`,
		`{"net":{"pins":[{"X":1,"X":2}]}}`,
		`{"net":{"name":"a","name":"b"}}`,
		`null`,
		`{"net":null}`,
		`{"net":{"pins":null}}`,
		`{"net":{"pins":[null]}}`,
		`{"net":{"pins":[{"X":null}]}}`,
		`{"algo":null,"workers":null}`,
		`{"algo":"ldrg"}`,
		`{"net":{"name":"a\nb"}}`,
		`{"net":{"name":"a\"b"}}`,
		"{\"net\":{\"name\":\"\xff\"}}",
		"{\"net\":{\"name\":\"\x01\"}}",
		`{"net":{"name":"ünï"}}`,
		`{"algo":"h3"} trailing`,
		`{"algo":"h3"}}`,
		`{"algo":"h3"}{"algo":"h1"}`,
		`{"algo":"h3"`,
		`{"algo":"h3",}`,
		`{"workers":1e2}`,
		`{"workers":1.5}`,
		`{"workers":-0}`,
		`{"workers":-3}`,
		`{"max_edges":99999999999999999999}`,
		`{"workers":01}`,
		`{"workers":"4"}`,
		`{"net":{"pins":[{"X":1e400,"Y":0}]}}`,
		`{"net":{"pins":[{"X":-0,"Y":1E-7}]}}`,
		`{"net":{"pins":[{"X":1.,"Y":0}]}}`,
		`{"net":{"pins":[{"X":.5,"Y":0}]}}`,
		`{"net":{"pins":[{"X":+1,"Y":0}]}}`,
		`{"net":{"pins":[{"X":1e,"Y":0}]}}`,
		`{"net":{"pins":[{"X":4.9e-324,"Y":1.7976931348623157e308}]}}`,
		`{"net":{"pins":[{"X":1,"Y":2}],"nets":1}}`,
		`{"nets":[]}`,
		`[]`,
		`5`,
		`"net"`,
		`{nope`,
	} {
		f.Add([]byte(seed))
	}
	h := New(Options{}).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		got, gotErr := ReadRouteRequest(bytes.NewReader(body))
		want, wantErr := decodeRouteRequest(bytes.NewReader(body))
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: error %v, encoding/json gives %v", body, gotErr, wantErr)
		}
		if wantErr == nil {
			if err := sameRequest(got, want); err != nil {
				t.Fatalf("%q: %v", body, err)
			}
			return
		}
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%q: error %q, encoding/json gives %q", body, gotErr, wantErr)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/route", bytes.NewReader(body)))
		var reply errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
			t.Fatalf("%q: reply %q: %v", body, rec.Body, err)
		}
		if rec.Code != http.StatusBadRequest || reply.Error != "decoding request: "+wantErr.Error() {
			t.Fatalf("%q: %d %q, want 400 %q", body, rec.Code, reply.Error, "decoding request: "+wantErr.Error())
		}
	})
}

// TestReadRouteRequestOversize: a body over the limit fails with the
// error json.Decoder reports over the same MaxBytesReader, whether the
// request object ends before the limit (accepted, as by json.Decoder) or
// not.
func TestReadRouteRequestOversize(t *testing.T) {
	for _, body := range []string{
		canonicalBody + strings.Repeat(" ", 64),
		`{"net":{"name":"` + strings.Repeat("x", 64) + `"}}`,
	} {
		read := func(decode func(*http.Request) (RouteRequest, error)) (RouteRequest, error) {
			rec := httptest.NewRecorder()
			r := httptest.NewRequest(http.MethodPost, "/route", strings.NewReader(body))
			return decode(&http.Request{Body: http.MaxBytesReader(rec, r.Body, int64(len(canonicalBody)+8))})
		}
		got, gotErr := read(func(r *http.Request) (RouteRequest, error) { return ReadRouteRequest(r.Body) })
		want, wantErr := read(func(r *http.Request) (RouteRequest, error) { return decodeRouteRequest(r.Body) })
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("%.30q…: error %v, encoding/json gives %v", body, gotErr, wantErr)
		} else if err := sameRequest(got, want); err != nil {
			t.Errorf("%.30q…: %v", body, err)
		}
	}
}

// FuzzRouteResponseEncode referees writeRoute against writeJSON, which is
// json.Encoder with HTML escaping off: the same status, content type and
// bytes for every reply, including the non-finite floats json.Encoder
// refuses, and tiny, huge and negative-zero values around its 'e' form
// cut-offs.
func FuzzRouteResponseEncode(f *testing.F) {
	bits := func(v float64) uint64 { return math.Float64bits(v) }
	for _, v := range []float64{0, math.Copysign(0, -1), 1, -2.5, 1e-6, 9.99e-7, 1e-7, 1.5e-9, 1e20, 1e21,
		-1e21, 5e-324, math.MaxFloat64, 123456789.125, math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add("ldrg", "elmore", bits(v), bits(1), uint8(3), true, bits(v), bits(2), 7, "r00000001", "t000001", 394, int64(0), bits(v), true, true)
	}
	f.Add("h3", "spice", bits(0), bits(0), uint8(0), false, bits(0), bits(0), 0, "", "", 0, int64(5), bits(0), false, false)
	f.Add("a\"b", "<&>", bits(1), bits(1), uint8(1), false, bits(1), bits(1), -1, "r ", "\xff", -3, int64(-1), bits(1), true, true)
	f.Add("ldrg", "elmore", bits(1), bits(1), uint8(255), false, bits(1), bits(1), 1, "r", "t", 1, int64(1), bits(1), true, false)
	f.Fuzz(func(t *testing.T, algo, oracle string, x, y uint64, nodes uint8, steiner bool,
		initial, final uint64, evals int, reqID, traceID string, events int, dropped int64, phase uint64, result, phases bool) {

		resp := &RouteResponse{RequestID: reqID, TraceID: traceID, TraceEvents: events, TraceDropped: dropped}
		if result {
			res := &RouteResult{Algo: algo, Oracle: oracle, InitialObjective: math.Float64frombits(initial),
				FinalObjective: math.Float64frombits(final), Evaluations: evals}
			// nodes%4 == 3 leaves every slice nil.
			if nodes%4 != 3 {
				res.Nodes, res.Edges, res.AddedEdges = []Node{}, []EdgeRef{}, []EdgeRef{}
				for i := 0; i < int(nodes%16); i++ {
					res.Nodes = append(res.Nodes, Node{X: math.Float64frombits(x) * float64(i), Y: math.Float64frombits(y), Steiner: steiner && i%2 == 1})
					res.Edges = append(res.Edges, EdgeRef{U: i, V: i + evals})
				}
				res.AddedEdges = res.Edges[:len(res.Edges)/2]
			}
			resp.RouteResult = res
		}
		if phases {
			p := math.Float64frombits(phase)
			resp.Phases = &PhaseBreakdown{QueueSeconds: p, DecodeSeconds: -p, SweepSeconds: p / 3,
				OracleSeconds: p * 1e-3, StoreSeconds: p * 1e15, TotalSeconds: p + 1}
		}
		got, want := httptest.NewRecorder(), httptest.NewRecorder()
		writeRoute(got, resp)
		writeJSON(want, http.StatusOK, resp)
		if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
			t.Fatalf("status %d %q, encoding/json gives %d %q", got.Code, got.Header().Get("Content-Type"),
				want.Code, want.Header().Get("Content-Type"))
		}
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("reply\n%s\nencoding/json writes\n%s", got.Body, want.Body)
		}
	})
}

// TestAppendRouteResponseSkipsReflection: a real reply takes the append
// path, whose bytes writeRoute sends.
func TestAppendRouteResponseSkipsReflection(t *testing.T) {
	net := &netlist.Net{Name: "n", Pins: []geom.Point{{X: 0, Y: 0}, {X: 900, Y: 400}, {X: 300, Y: 800}}}
	res, err := Run(net, RouteOptions{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp := &RouteResponse{RouteResult: res, RequestID: "r00000001", TraceID: "t000001", TraceEvents: 9,
		Phases: &PhaseBreakdown{QueueSeconds: 1e-7, TotalSeconds: 0.25}}
	b, ok := appendRouteResponse(nil, resp)
	if !ok {
		t.Fatal("a finite, plain reply fell back to encoding/json")
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(resp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, buf.Bytes()) {
		t.Fatalf("appended\n%s\njson.Encoder writes\n%s", b, buf.Bytes())
	}
}

// BenchmarkRouteRequestDecode compares the scanner with the reflection
// decoder it replaces on a 30-pin request body.
func BenchmarkRouteRequestDecode(b *testing.B) {
	net, err := netlist.NewGenerator(30).Generate(30)
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(RouteRequest{Net: net, RouteOptions: RouteOptions{Algo: AlgoH3}})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		decode func([]byte) (RouteRequest, error)
	}{
		{"scanner", func(body []byte) (RouteRequest, error) { return ReadRouteRequest(bytes.NewReader(body)) }},
		{"reflect", func(body []byte) (RouteRequest, error) { return decodeRouteRequest(bytes.NewReader(body)) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.decode(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRouteResponseEncode compares the appender with json.Encoder on
// a 30-pin reply.
func BenchmarkRouteResponseEncode(b *testing.B) {
	net, err := netlist.NewGenerator(30).Generate(30)
	if err != nil {
		b.Fatal(err)
	}
	res, err := Run(net, RouteOptions{Algo: AlgoH3}, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	resp := &RouteResponse{RouteResult: res, RequestID: "r00000001", TraceID: "t000001", TraceEvents: 394,
		Phases: &PhaseBreakdown{QueueSeconds: 1.5e-6, DecodeSeconds: 2.5e-5, SweepSeconds: 1e-4,
			OracleSeconds: 2e-4, StoreSeconds: 3e-6, TotalSeconds: 3.3e-4}}
	w := discard{http.Header{}}
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			writeRoute(w, resp)
		}
	})
	b.Run("reflect", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			writeJSON(w, http.StatusOK, resp)
		}
	})
}

// discard is a ResponseWriter that keeps only its header.
type discard struct{ h http.Header }

func (d discard) Header() http.Header       { return d.h }
func (discard) Write(p []byte) (int, error) { return len(p), nil }
func (discard) WriteHeader(int)             {}
