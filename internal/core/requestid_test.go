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
// leaves errors untouched. Every entry fails through the broken oracle
// except the wrong-length alphas case, which fails validation first. The
// tag prefixes the error unless a nested entry point put it there, inside
// the outer entry point's context.
func TestEntryPointsTagErrorsWithRequestID(t *testing.T) {
	seed := randomMST(t, 42, 8)
	net := randomNet(t, 42, 8)
	alphas := UniformCriticality(8)
	const id = "r00000042"
	entries := []struct {
		name   string
		run    func(opts Options) error
		cause  error // the error the chain must keep; nil skips the check
		nested bool  // the tag comes from an inner entry point
	}{
		{"LDRG", func(o Options) error { _, err := LDRG(seed, o); return err }, errBroken, false},
		{"LDRGWithTaps", func(o Options) error { _, err := LDRGWithTaps(seed, o); return err }, errBroken, false},
		{"SLDRG", func(o Options) error { _, err := SLDRG(net.Pins, steiner.Options{}, o); return err }, errBroken, true},
		{"CriticalSinkLDRG", func(o Options) error { _, err := CriticalSinkLDRG(seed, alphas, o); return err }, errBroken, false},
		{"CriticalSinkLDRG/wrong-alphas", func(o Options) error { _, err := CriticalSinkLDRG(seed, alphas[1:], o); return err }, nil, false},
		{"H1", func(o Options) error { _, err := H1(seed, o); return err }, errBroken, false},
		{"H2", func(o Options) error { _, err := H2(seed, rc.Default(), o); return err }, errBroken, false},
		{"H3", func(o Options) error { _, err := H3(seed, rc.Default(), o); return err }, errBroken, false},
		{"Cleanup", func(o Options) error { _, err := Cleanup(seed, 0, o); return err }, errBroken, false},
		{"WireSize", func(o Options) error { _, err := WireSize(seed, WireSizeOptions{}, o); return err }, errBroken, false},
		{"HORG", func(o Options) error {
			_, err := HORG(net.Pins, alphas, true, WireSizeOptions{}, o)
			return err
		}, errBroken, true},
	}
	for _, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			err := e.run(Options{Oracle: brokenOracle{}, RequestID: id})
			if err == nil {
				t.Fatal("entry point did not surface an error")
			}
			if e.cause != nil && !errors.Is(err, e.cause) {
				t.Fatalf("error chain lost the oracle cause: %v", err)
			}
			tag := "[request " + id + "]"
			if got := strings.Count(err.Error(), tag); got != 1 {
				t.Errorf("error carries %d %q tags, want exactly 1: %v", got, tag, err)
			}
			if !e.nested && !strings.HasPrefix(err.Error(), tag) {
				t.Errorf("tag is not the error prefix: %v", err)
			}

			// An untagged run surfaces the identical cause with no tag.
			err = e.run(Options{Oracle: brokenOracle{}})
			if err == nil || strings.Contains(err.Error(), "[request") {
				t.Errorf("empty RequestID still tagged: %v", err)
			}
		})
	}
}

// TestOracleErrorsTaggedAtSource pins that the oracles themselves tag (so
// provenance survives callers outside the entry points, e.g. the expt
// harness calling SinkDelays directly) and that tagRequest is idempotent
// when an entry point re-wraps an already-tagged oracle error.
func TestOracleErrorsTaggedAtSource(t *testing.T) {
	topo := randomMST(t, 7, 4)
	// Zero params fail rc validation inside Lump, the first oracle step.
	o := &ElmoreOracle{Params: rc.Params{}, RequestID: "r00000007"}
	if _, err := o.SinkDelays(topo, nil); err == nil {
		t.Fatal("unphysical params did not error")
	} else if !strings.Contains(err.Error(), "[request r00000007]") {
		t.Errorf("elmore oracle error untagged: %v", err)
	}

	// Idempotence: re-tagging an already-tagged error is a no-op.
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
