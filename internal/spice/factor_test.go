package spice_test

import (
	"fmt"
	"testing"

	"nontree/internal/linalg"
	"nontree/internal/mst"
	"nontree/internal/netlist"
	"nontree/internal/rc"
	"nontree/internal/spice"
)

// iterationMatrix returns G + 2C/h of the MST circuit (500 µm segments) of
// a pins-pin net from the generator seed 42, the nets of the root
// package's benchNet: the matrix a SPICE measurement factors first.
func iterationMatrix(tb testing.TB, pins int) *linalg.Sparse {
	tb.Helper()
	net, err := netlist.NewGenerator(42).Generate(pins)
	if err != nil {
		tb.Fatal(err)
	}
	tree, err := mst.Prim(net.Pins)
	if err != nil {
		tb.Fatal(err)
	}
	cm, err := rc.BuildCircuit(tree, rc.Default(), rc.BuildOpts{})
	if err != nil {
		tb.Fatal(err)
	}
	return spice.IterationMatrix(cm.Circuit)
}

// TestMNAFactorAllocatesOnlyItsResult guards the reused LU scratch on the
// matrices SPICE factors: once warm, factoring the iteration matrix of a
// 5- or 30-pin net allocates the factor and its index and value arrays,
// and nothing per row merge or fill entry.
func TestMNAFactorAllocatesOnlyItsResult(t *testing.T) {
	for _, pins := range []int{5, 30} {
		m := iterationMatrix(t, pins)
		if _, err := m.Factor(); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(20, func() { _, _ = m.Factor() }); got > 3 {
			t.Errorf("%d pins (%d unknowns): %v allocations per factorization, want at most 3", pins, m.Rows, got)
		}
	}
}

// BenchmarkMNAFactor times one LU factorization of the trapezoidal
// iteration matrix of the MST circuit of a 5-, 10-, 20- and 30-pin net:
// the fixed cost each SPICE measurement pays per factorization.
func BenchmarkMNAFactor(b *testing.B) {
	for _, pins := range []int{5, 10, 20, 30} {
		b.Run(fmt.Sprint(pins), func(b *testing.B) {
			m := iterationMatrix(b, pins)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Factor(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
