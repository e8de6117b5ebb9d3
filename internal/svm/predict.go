package svm

import (
	"time"

	"frappe/internal/workerpool"
)

// exactModel returns the model's exact compiled form (CompileExact: the
// support vectors flattened row-major with their squared norms), built
// once on first use. A model that does not compile — a corrupt gob load
// with zero-dimensional or ragged support vectors, or mismatched
// coefficients — yields nil, and every decision value degrades to the
// bias instead of indexing out of bounds.
func (m *Model) exactModel() *CompiledModel {
	m.exactOnce.Do(func() {
		if c, err := Compile(m, CompileOptions{Mode: CompileExact}); err == nil {
			m.exact = c
		}
	})
	return m.exact
}

// DecisionValue returns f(x) = sum coef_i K(sv_i, x) + b. Positive values
// classify as the +1 class.
func (m *Model) DecisionValue(x []float64) float64 {
	c := m.exactModel()
	if c == nil {
		return m.B
	}
	return c.DecisionValue(x)
}

// DecisionValues computes f(x) for every row of xs, fanning the rows out
// over a bounded worker pool (GOMAXPROCS wide). Each row writes only its
// own output slot, so the result is identical to calling DecisionValue in
// a loop — for any worker count. An empty batch returns immediately and
// leaves the batch-prediction metrics untouched: observing a zero-width
// "batch" would skew the duration histogram and pin the worker gauge to a
// meaningless value.
func (m *Model) DecisionValues(xs [][]float64) []float64 {
	if len(xs) == 0 {
		return []float64{}
	}
	start := time.Now()
	c := m.exactModel()
	out := make([]float64, len(xs))
	if c == nil {
		for i := range out {
			out[i] = m.B
		}
		return out
	}
	workers := workerpool.Clamp(0, len(xs))
	batchPredictWorkers.With().Set(float64(workers))
	workerpool.Run(len(xs), workers, func(i int) {
		out[i] = c.DecisionValue(xs[i])
	})
	batchPredictDuration.With().Observe(time.Since(start).Seconds())
	return out
}

// Predict returns +1 or -1 for x.
func (m *Model) Predict(x []float64) float64 {
	if m.DecisionValue(x) >= 0 {
		return 1
	}
	return -1
}
