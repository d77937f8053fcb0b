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
// error paths.
type brokenOracle struct{}

var errBroken = errors.New("oracle intentionally broken")

func (brokenOracle) SinkDelays(t *graph.Topology, width rc.WidthFunc) ([]float64, error) {
	return nil, errBroken
}
func (brokenOracle) Name() string { return "broken" }

// TestEntryPointsKeepOracleCause pins that every exported entry point
// surfaces an oracle failure with its cause intact — even through nested
// entry points (taps re-enter the sweep machinery, HORG runs SLDRG and
// WireSize) — so the daemon, which names the request in every routing
// error, reports what actually failed. Every entry runs over two failing
// oracles, a broken test double and an ElmoreOracle whose zero Params fail
// inside rc.Lump; all fail in the oracle except the wrong-length alphas
// case, which fails validation first.
func TestEntryPointsKeepOracleCause(t *testing.T) {
	seed := randomMST(t, 42, 8)
	net := randomNet(t, 42, 8)
	alphas := UniformCriticality(8)
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
	}{
		{"LDRG", func(o Options) error { _, err := LDRG(seed, o); return err }, true},
		{"LDRGWithTaps", func(o Options) error { _, err := LDRGWithTaps(seed, o); return err }, true},
		{"SLDRG", func(o Options) error { _, err := SLDRG(net.Pins, steiner.Options{}, o); return err }, true},
		{"CriticalSinkLDRG", func(o Options) error { _, err := CriticalSinkLDRG(seed, alphas, o); return err }, true},
		{"CriticalSinkLDRG/wrong-alphas", func(o Options) error { _, err := CriticalSinkLDRG(seed, alphas[1:], o); return err }, false},
		{"H1", func(o Options) error { _, err := H1(seed, o); return err }, true},
		{"H2", func(o Options) error { _, err := H2(seed, rc.Default(), o); return err }, true},
		{"H3", func(o Options) error { _, err := H3(seed, rc.Default(), o); return err }, true},
		{"Cleanup", func(o Options) error { _, err := Cleanup(seed, 0, o); return err }, true},
		{"WireSize", func(o Options) error { _, err := WireSize(seed, WireSizeOptions{}, o); return err }, true},
		{"HORG", func(o Options) error {
			_, err := HORG(net.Pins, alphas, true, WireSizeOptions{}, o)
			return err
		}, true},
	}
	for _, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			for _, o := range oracles {
				err := e.run(Options{Oracle: o.oracle})
				if err == nil {
					t.Fatalf("%s: entry point did not surface an error", o.oracle.Name())
				}
				if e.inOracle && !o.keeps(err) {
					t.Fatalf("%s: error lost the oracle cause: %v", o.oracle.Name(), err)
				}
			}
		})
	}
}
