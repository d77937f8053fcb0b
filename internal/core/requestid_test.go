package core

import (
	"errors"
	"strings"
	"testing"

	"nontree/internal/graph"
	"nontree/internal/rc"
	"nontree/internal/steiner"
)

// brokenOracle fails every evaluation, forcing the entry points down their
// error paths so the request-id tagging can be observed.
type brokenOracle struct{}

var errBroken = errors.New("oracle intentionally broken")

func (brokenOracle) SinkDelays(t *graph.Topology, width rc.WidthFunc) ([]float64, error) {
	return nil, errBroken
}
func (brokenOracle) Name() string { return "broken" }

// TestEntryPointsTagErrorsWithRequestID pins the provenance contract of
// Options.RequestID: every error an exported entry point surfaces names the
// request exactly once — even through nested entry points (taps re-enter
// the sweep machinery, HORG runs SLDRG and WireSize) — and an empty id
// leaves errors untouched. Every entry runs over two failing oracles, a
// broken test double and an ElmoreOracle whose zero Params fail inside
// rc.Lump; all fail in the oracle except the wrong-length alphas case,
// which fails validation first. The tag prefixes the error unless a nested
// entry point put it there, inside the outer entry point's context.
func TestEntryPointsTagErrorsWithRequestID(t *testing.T) {
	seed := randomMST(t, 42, 8)
	net := randomNet(t, 42, 8)
	alphas := UniformCriticality(8)
	const id = "r00000042"
	oracles := []struct {
		oracle DelayOracle
		keeps  func(err error) bool // err still carries the oracle's failure
	}{
		{brokenOracle{}, func(err error) bool { return errors.Is(err, errBroken) }},
		{&ElmoreOracle{Params: rc.Params{}}, func(err error) bool {
			return strings.Contains(err.Error(), "rc: driver resistance must be positive")
		}},
	}
	entries := []struct {
		name     string
		run      func(opts Options) error
		inOracle bool // the failure comes from the oracle
		nested   bool // the tag comes from an inner entry point
	}{
		{"LDRG", func(o Options) error { _, err := LDRG(seed, o); return err }, true, false},
		{"LDRGWithTaps", func(o Options) error { _, err := LDRGWithTaps(seed, o); return err }, true, false},
		{"SLDRG", func(o Options) error { _, err := SLDRG(net.Pins, steiner.Options{}, o); return err }, true, true},
		{"CriticalSinkLDRG", func(o Options) error { _, err := CriticalSinkLDRG(seed, alphas, o); return err }, true, false},
		{"CriticalSinkLDRG/wrong-alphas", func(o Options) error { _, err := CriticalSinkLDRG(seed, alphas[1:], o); return err }, false, false},
		{"H1", func(o Options) error { _, err := H1(seed, o); return err }, true, false},
		{"H2", func(o Options) error { _, err := H2(seed, rc.Default(), o); return err }, true, false},
		{"H3", func(o Options) error { _, err := H3(seed, rc.Default(), o); return err }, true, false},
		{"Cleanup", func(o Options) error { _, err := Cleanup(seed, 0, o); return err }, true, false},
		{"WireSize", func(o Options) error { _, err := WireSize(seed, WireSizeOptions{}, o); return err }, true, false},
		{"HORG", func(o Options) error {
			_, err := HORG(net.Pins, alphas, true, WireSizeOptions{}, o)
			return err
		}, true, true},
	}
	for _, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			for _, o := range oracles {
				err := e.run(Options{Oracle: o.oracle, RequestID: id})
				if err == nil {
					t.Fatalf("%s: entry point did not surface an error", o.oracle.Name())
				}
				if e.inOracle && !o.keeps(err) {
					t.Fatalf("%s: error lost the oracle cause: %v", o.oracle.Name(), err)
				}
				tag := "[request " + id + "]"
				if got := strings.Count(err.Error(), tag); got != 1 {
					t.Errorf("%s: error carries %d %q tags, want exactly 1: %v", o.oracle.Name(), got, tag, err)
				}
				if !e.nested && !strings.HasPrefix(err.Error(), tag) {
					t.Errorf("%s: tag is not the error prefix: %v", o.oracle.Name(), err)
				}

				// An untagged run surfaces the identical cause with no tag.
				err = e.run(Options{Oracle: o.oracle})
				if err == nil || strings.Contains(err.Error(), "[request") {
					t.Errorf("%s: empty RequestID still tagged: %v", o.oracle.Name(), err)
				}
			}
		})
	}
}

// TestTagRequestIdempotent pins that tagRequest leaves an error already
// carrying the id's tag alone, which the nested entry points (SLDRG, HORG)
// rely on, and passes nil errors and the empty id through.
func TestTagRequestIdempotent(t *testing.T) {
	tagged := tagRequest("r00000007", errBroken)
	if got := tagRequest("r00000007", tagged); got != tagged {
		t.Errorf("tagRequest re-wrapped an already-tagged error: %v", got)
	}
	if got := tagRequest("", errBroken); got != errBroken {
		t.Errorf("tagRequest with empty id rewrapped: %v", got)
	}
	if got := tagRequest("r1", nil); got != nil {
		t.Errorf("tagRequest on nil error: %v", got)
	}
}
