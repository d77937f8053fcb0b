package spice_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"nontree/internal/mst"
	"nontree/internal/netlist"
	"nontree/internal/rc"
	"nontree/internal/spice"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// buildDemo has one of every element kind and each source waveform shape
// WriteDeck distinguishes: a DC current ("DC"), steps at t=0 from zero and
// from a non-zero level, and a delayed step (each a sharp PWL).
func buildDemo(t *testing.T) *spice.Circuit {
	t.Helper()
	c := spice.NewCircuit()
	in, out, aux := c.Node(), c.Node(), c.Node()
	for _, err := range []error{
		c.AddVSource(in, spice.Ground, spice.Step(0, 1, 0)),
		c.AddResistor(in, out, 1000),
		c.AddCapacitor(out, spice.Ground, 1e-12),
		c.AddInductor(in, out, 1e-9), // parallel RL for variety
		c.AddISource(spice.Ground, out, spice.DC(1e-6)),
		c.AddVSource(aux, spice.Ground, spice.Step(0.5, 1, 0)),
		c.AddResistor(aux, out, 50e3),
		c.AddISource(spice.Ground, aux, spice.Step(0, 1e-6, 2e-9)),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestWriteDeckGolden pins WriteDeck's exact bytes for the demo circuit
// and for the RC circuit of a 5-pin MST.
func TestWriteDeckGolden(t *testing.T) {
	net, err := netlist.NewGenerator(5).Generate(5)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := mst.Prim(net.Pins)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := rc.BuildCircuit(tree, rc.Default(), rc.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		file, title string
		c           *spice.Circuit
		step, stop  float64
	}{
		{"demo.cir", "demo", buildDemo(t), 1e-12, 10e-9},
		{"mst5.cir", "", cm.Circuit, 0, 2e-9},
	} {
		var buf bytes.Buffer
		if err := spice.WriteDeck(&buf, tc.c, tc.title, tc.step, tc.stop); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", tc.file)
		if *updateGolden {
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to regenerate)", err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s drifted from golden file (run with -update to regenerate):\n got:\n%s\nwant:\n%s", tc.file, buf.Bytes(), want)
		}
	}
}
