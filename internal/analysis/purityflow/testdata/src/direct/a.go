// Package a exercises purityflow on direct writes: SinkDelays/Evaluate/Eval
// methods must not write receiver fields or package-level variables.
package a

type topo struct{ n int }

var evalCount int // package-level state shared by every goroutine

// cachingOracle memoizes into receiver fields — the classic violation.
type cachingOracle struct {
	scratch []float64
	calls   int
	last    *topo
}

func (o *cachingOracle) SinkDelays(t *topo) ([]float64, error) {
	o.calls++ // want `updates receiver state o.calls in SinkDelays`
	if cap(o.scratch) < t.n {
		o.scratch = make([]float64, t.n) // want `writes receiver state o.scratch in SinkDelays`
	}
	o.last = t       // want `writes receiver state o.last in SinkDelays`
	evalCount++      // want `updates package-level variable evalCount in SinkDelays`
	buf := o.scratch // reading receiver state is fine
	for i := range buf {
		buf[i] = 0 // alias write: documented analyzer blind spot, race tests cover it
	}
	return buf[:t.n], nil
}

// cleanOracle allocates per call — the documented convention.
type cleanOracle struct {
	gain float64 // read-only after construction
}

func (o *cleanOracle) SinkDelays(t *topo) ([]float64, error) {
	buf := make([]float64, t.n)
	for i := range buf {
		buf[i] = o.gain * float64(i)
	}
	return buf, nil
}

// valueObjective writes only locals and its value receiver copy.
type valueObjective struct{ scale float64 }

func (v valueObjective) Eval(delays []float64) (float64, error) {
	v = valueObjective{scale: v.scale * 2} // rebinding the local copy is harmless
	worst := 0.0
	for _, d := range delays {
		if d*v.scale > worst {
			worst = d * v.scale
		}
	}
	return worst, nil
}

// elementWrites flags writes through receiver fields at any depth.
type elementWrites struct {
	hist map[int]int
	rows [][]float64
}

func (o *elementWrites) Evaluate(t *topo) float64 {
	o.hist[t.n]++    // want `updates receiver state o.hist\[...\] in Evaluate`
	o.rows[0][0] = 1 // want `writes receiver state o.rows\[...\]\[...\] in Evaluate`
	return 0
}

// Incremental here is NOT the sanctioned elmore.Incremental — the
// exception is keyed on the package path, so this one is still flagged.
type Incremental struct{ state float64 }

func (inc *Incremental) Evaluate(t *topo) float64 {
	inc.state++ // want `updates receiver state inc.state in Evaluate`
	return inc.state
}

// annotated documents a deliberate exemption.
type annotated struct{ hits int }

func (a *annotated) Eval(delays []float64) (float64, error) {
	a.hits++ //nontree:allow purityflow metrics counter guarded by an atomic in the real implementation
	return 0, nil
}

// otherMethod is outside the contract: arbitrary methods may mutate.
func (o *cachingOracle) Reset() {
	o.calls = 0
	o.scratch = nil
}
