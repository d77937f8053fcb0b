package jsonl

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// wire and event are a minimal client schema: one int, one string and
// one hex-float field.
type wire struct {
	Seq  int64  `json:"seq"`
	Kind string `json:"kind"`
	X    string `json:"x,omitempty"`
}

type event struct {
	Seq  int64
	Kind string
	X    float64
}

func (e event) Encode() []byte {
	return Marshal(wire{Seq: e.Seq, Kind: CanonString(e.Kind), X: FormatFloat(e.X)})
}

func decode(line []byte) (event, error) {
	var w wire
	if err := Unmarshal(line, &w); err != nil {
		return event{}, err
	}
	var fp FloatParser
	e := event{Seq: w.Seq, Kind: w.Kind, X: fp.Parse(w.X, "x")}
	return e, fp.Err
}

func TestFloatRoundTrip(t *testing.T) {
	cases := []struct {
		v    float64
		wire string
	}{
		{0, ""},
		{math.Copysign(0, -1), "-0x0p+00"},
		{1.5, "0x1.8p+00"},
		{-250.25, "-0x1.f48p+07"},
		{1.25e-9, "0x1.5798ee2308c3ap-30"},
		{math.SmallestNonzeroFloat64, "0x1p-1074"},
		{math.Inf(1), "+Inf"},
		{math.Inf(-1), "-Inf"},
		{math.NaN(), "NaN"},
		{math.Float64frombits(0x7ff8000000000bad), "NaN"}, // payload canonicalized
	}
	for _, c := range cases {
		got := FormatFloat(c.v)
		if got != c.wire {
			t.Errorf("FormatFloat(%x) = %q, want %q", math.Float64bits(c.v), got, c.wire)
		}
		var fp FloatParser
		back := fp.Parse(got, "x")
		if fp.Err != nil {
			t.Fatalf("Parse(%q): %v", got, fp.Err)
		}
		want := c.v
		if math.IsNaN(want) {
			want = math.NaN()
		}
		if math.Float64bits(back) != math.Float64bits(want) {
			t.Errorf("Parse(%q) bits %x, want %x", got, math.Float64bits(back), math.Float64bits(want))
		}
	}
}

func TestFloatParserKeepsFirstError(t *testing.T) {
	var fp FloatParser
	fp.Parse("zzz", "first")
	if v := fp.Parse("0x1p+00", "ok"); v != 0 {
		t.Errorf("parse after a failure returned %v, want 0", v)
	}
	fp.Parse("yyy", "second")
	if fp.Err == nil || !strings.Contains(fp.Err.Error(), `"first"`) {
		t.Fatalf("want the first failure naming its field, got %v", fp.Err)
	}
}

func TestCanonString(t *testing.T) {
	for in, want := range map[string]string{
		"edge_accepted": "edge_accepted",
		"r\xffbad":      "r�bad",
		"n\xc3":         "n�",
	} {
		if got := CanonString(in); got != want {
			t.Errorf("CanonString(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestMarshalIsCanonical(t *testing.T) {
	got := string(event{Seq: 1, Kind: "a<b>&c", X: math.Copysign(0, -1)}.Encode())
	want := `{"seq":1,"kind":"a<b>&c","x":"-0x0p+00"}`
	if got != want {
		t.Errorf("got %s, want %s", got, want)
	}
}

func TestUnmarshal(t *testing.T) {
	cases := []struct {
		name, line string
		ok         bool
	}{
		{"canonical", `{"seq":1,"kind":"a"}`, true},
		{"trailing whitespace", "{\"seq\":1,\"kind\":\"a\"} \t", true},
		{"unknown field", `{"seq":1,"kind":"a","bogus":3}`, false},
		{"second value", `{"seq":1,"kind":"a"}{"seq":2,"kind":"b"}`, false},
		{"trailing garbage", `{"seq":1,"kind":"a"} garbage`, false},
		{"stray close brace", `{"seq":1,"kind":"a"}}`, false},
		{"stray close bracket", `{"seq":1,"kind":"a"}]`, false},
		{"not json", `not json`, false},
		{"empty", ``, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var w wire
			err := Unmarshal([]byte(c.line), &w)
			if (err == nil) != c.ok {
				t.Errorf("Unmarshal(%q) error = %v, want ok=%v", c.line, err, c.ok)
			}
		})
	}
}

func TestReadWrite(t *testing.T) {
	events := []event{{Seq: 1, Kind: "a", X: 1.5}, {Seq: 2, Kind: "b"}}
	var buf bytes.Buffer
	if err := Write(&buf, events); err != nil {
		t.Fatal(err)
	}
	if want := "{\"seq\":1,\"kind\":\"a\",\"x\":\"0x1.8p+00\"}\n{\"seq\":2,\"kind\":\"b\"}\n"; buf.String() != want {
		t.Fatalf("Write:\n got  %q\n want %q", buf.String(), want)
	}
	// Blank and whitespace-only lines are skipped on read.
	doc := "\n" + strings.Replace(buf.String(), "\n", "\n  \n", 1) + "\n\n"
	back, err := Read(strings.NewReader(doc), decode)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(events) || back[0] != events[0] || back[1] != events[1] {
		t.Fatalf("Read: got %+v, want %+v", back, events)
	}
}

func TestReadRejectsTrailingData(t *testing.T) {
	_, err := Read(strings.NewReader(`{"seq":1,"kind":"a"}{"seq":2,"kind":"b"}`), decode)
	if err == nil {
		t.Fatal("Read accepted two events on one line")
	}
}
