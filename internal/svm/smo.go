package svm

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"time"

	"frappe/internal/workerpool"
)

// Params configures training. The zero value is not meaningful; use
// DefaultParams for the libsvm defaults the paper relies on.
type Params struct {
	Kernel Kernel
	// C is the soft-margin penalty. libsvm default: 1.
	C float64
	// Tol is the KKT violation tolerance (libsvm's -e). Default 1e-3.
	Tol float64
	// MaxPasses is a runaway guard on plateau alternations (sweeps over
	// the non-bound subset that change nothing). Platt's loop terminates
	// naturally when a full sweep makes no progress; plateaus occur many
	// times mid-optimisation, so this must stay generous. Default 1000.
	MaxPasses int
	// MaxIter is a hard cap on optimisation iterations (0 = 100*n).
	MaxIter int
	// Seed drives the tie-breaking randomness of SMO, making training
	// deterministic for a fixed dataset.
	Seed int64
	// CacheBytes bounds the kernel matrix cache. When the full n×n matrix
	// of float32 fits, it is precomputed; otherwise kernel values are
	// computed on demand. Default 256 MiB.
	CacheBytes int
}

// DefaultParams returns libsvm-compatible defaults for dim input features:
// RBF kernel with gamma = 1/dim, degree 3, coef0 = 0, C = 1 — the
// configuration reported in §5.1 of the paper.
func DefaultParams(dim int) Params {
	g := 1.0
	if dim > 0 {
		g = 1.0 / float64(dim)
	}
	return Params{
		Kernel:     Kernel{Type: RBF, Gamma: g, Coef0: 0, Degree: 3},
		C:          1,
		Tol:        1e-3,
		MaxPasses:  1000,
		Seed:       1,
		CacheBytes: 256 << 20,
	}
}

// Model is a trained SVM. Predictions depend only on the support vectors.
// The unexported fields hold the exact compiled form every prediction
// scores through (see predict.go); they are not serialised and are built
// on first use, so models arriving via gob Load get them too.
type Model struct {
	Kernel  Kernel
	SV      [][]float64 // support vectors
	Coef    []float64   // alpha_i * y_i for each support vector
	B       float64     // bias
	Classes [2]float64  // label values for -1 and +1 sides (for reporting)

	exactOnce sync.Once
	exact     *CompiledModel // nil when the model does not compile
}

// NumSV returns the number of support vectors.
func (m *Model) NumSV() int { return len(m.SV) }

// trainer holds SMO working state.
type trainer struct {
	x      [][]float64
	y      []float64
	xnorms []float64 // per-row ‖x‖², feeding Kernel.EvalNorm
	alpha  []float64
	errs   []float64
	b      float64
	p      Params
	rng    *rand.Rand
	kcache [][]float32 // full kernel matrix, or nil
	kdiag  []float64
	iters  int // successful optimisation steps
	tries  int // takeStep attempts (successful or not)
	maxIt  int
}

// Train fits an SVM on xs with labels ys in {-1, +1}.
func Train(xs [][]float64, ys []float64, p Params) (*Model, error) {
	n := len(xs)
	if n == 0 {
		return nil, errors.New("svm: no training data")
	}
	if len(ys) != n {
		return nil, errors.New("svm: len(xs) != len(ys)")
	}
	pos, neg := 0, 0
	for _, y := range ys {
		switch y {
		case 1:
			pos++
		case -1:
			neg++
		default:
			return nil, errors.New("svm: labels must be -1 or +1")
		}
	}
	if pos == 0 || neg == 0 {
		return nil, errors.New("svm: training data must contain both classes")
	}
	if p.C <= 0 {
		return nil, errors.New("svm: C must be positive")
	}
	if p.Tol <= 0 {
		p.Tol = 1e-3
	}
	if p.MaxPasses <= 0 {
		p.MaxPasses = 1000
	}
	if p.CacheBytes <= 0 {
		p.CacheBytes = 256 << 20
	}
	maxIt := p.MaxIter
	if maxIt <= 0 {
		maxIt = 100 * n
		if maxIt < 10000 {
			maxIt = 10000
		}
	}

	tr := &trainer{
		x:      xs,
		y:      ys,
		xnorms: make([]float64, n),
		alpha:  make([]float64, n),
		errs:   make([]float64, n),
		p:      p,
		rng:    rand.New(rand.NewSource(p.Seed)),
		maxIt:  maxIt,
	}
	for i := range xs {
		tr.xnorms[i] = SqNorm(xs[i])
	}
	if int64(n)*int64(n)*4 <= int64(p.CacheBytes) {
		tr.precomputeKernel()
	} else {
		tr.kdiag = make([]float64, n)
		for i := range xs {
			tr.kdiag[i] = p.Kernel.EvalNorm(xs[i], xs[i], tr.xnorms[i], tr.xnorms[i])
		}
	}
	// With all alphas zero, f(x_i) = 0, so E_i = -y_i.
	for i := range tr.errs {
		tr.errs[i] = -ys[i]
	}

	tr.run()

	// Collect support vectors.
	var m Model
	m.Kernel = p.Kernel
	// The trainer uses Platt's u = w·x - b convention; the model exposes
	// f(x) = w·x + B.
	m.B = -tr.b
	m.Classes = [2]float64{-1, 1}
	for i, a := range tr.alpha {
		if a > 1e-12 {
			sv := make([]float64, len(xs[i]))
			copy(sv, xs[i])
			m.SV = append(m.SV, sv)
			m.Coef = append(m.Coef, a*ys[i])
		}
	}
	return &m, nil
}

// precomputeKernel fills the full n×n kernel matrix. The upper triangle is
// partitioned row-wise over a bounded worker pool (row i also writes its
// mirror column, so workers touch disjoint cells) and every entry goes
// through Kernel.EvalNorm with the cached squared norms, so one dot product
// replaces the subtract-square loop. Entries are pure functions of (i, j),
// which makes the result bit-identical for any worker count.
func (t *trainer) precomputeKernel() {
	start := time.Now()
	n := len(t.x)
	t.kcache = make([][]float32, n)
	t.kdiag = make([]float64, n)
	flat := make([]float32, n*n)
	for i := 0; i < n; i++ {
		t.kcache[i] = flat[i*n : (i+1)*n]
	}
	workers := workerpool.Clamp(0, n)
	precomputeWorkers.With().Set(float64(workers))
	// Early rows carry the longest triangle spans; small chunks keep the
	// pool balanced without contending on the counter.
	workerpool.RunChunked(n, workers, 4, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			xi, ni := t.x[i], t.xnorms[i]
			row := t.kcache[i]
			for j := i; j < n; j++ {
				v := float32(t.p.Kernel.EvalNorm(xi, t.x[j], ni, t.xnorms[j]))
				row[j] = v
				t.kcache[j][i] = v
			}
			t.kdiag[i] = float64(row[i])
		}
	})
	precomputeDuration.With().Observe(time.Since(start).Seconds())
}

func (t *trainer) kernel(i, j int) float64 {
	if t.kcache != nil {
		return float64(t.kcache[i][j])
	}
	if i == j {
		return t.kdiag[i]
	}
	return t.p.Kernel.EvalNorm(t.x[i], t.x[j], t.xnorms[i], t.xnorms[j])
}

// run executes Platt's SMO main loop: alternate between a sweep over all
// examples and sweeps over the non-bound subset until no multiplier changes.
func (t *trainer) run() {
	n := len(t.x)
	numChanged := 0
	examineAll := true
	passes := 0
	maxTries := 60 * t.maxIt
	for (numChanged > 0 || examineAll) && t.iters < t.maxIt && t.tries < maxTries {
		numChanged = 0
		if examineAll {
			for i := 0; i < n && t.iters < t.maxIt; i++ {
				numChanged += t.examine(i)
			}
		} else {
			for i := 0; i < n && t.iters < t.maxIt; i++ {
				if t.alpha[i] > 0 && t.alpha[i] < t.p.C {
					numChanged += t.examine(i)
				}
			}
		}
		if examineAll {
			examineAll = false
		} else if numChanged == 0 {
			examineAll = true
			passes++
			if passes >= t.p.MaxPasses {
				return
			}
		}
	}
}

// examine implements Platt's examineExample with the second-choice
// heuristics. Returns 1 if a pair of multipliers was optimised.
func (t *trainer) examine(i2 int) int {
	y2 := t.y[i2]
	a2 := t.alpha[i2]
	e2 := t.errs[i2]
	r2 := e2 * y2
	tol, c := t.p.Tol, t.p.C
	if (r2 < -tol && a2 < c) || (r2 > tol && a2 > 0) {
		// Heuristic 1: maximize |E1 - E2| over non-bound examples.
		best, bestGap := -1, 0.0
		for i := range t.alpha {
			if t.alpha[i] > 0 && t.alpha[i] < c {
				gap := math.Abs(t.errs[i] - e2)
				if gap > bestGap {
					bestGap, best = gap, i
				}
			}
		}
		if best >= 0 && t.takeStep(best, i2) {
			return 1
		}
		// Heuristic 2: loop over non-bound, random start.
		n := len(t.alpha)
		start := t.rng.Intn(n)
		for k := 0; k < n; k++ {
			i1 := (start + k) % n
			if t.alpha[i1] > 0 && t.alpha[i1] < c && t.takeStep(i1, i2) {
				return 1
			}
		}
		// Heuristic 3: loop over everything, random start.
		start = t.rng.Intn(n)
		for k := 0; k < n; k++ {
			i1 := (start + k) % n
			if t.takeStep(i1, i2) {
				return 1
			}
		}
	}
	return 0
}

// takeStep jointly optimises alpha[i1] and alpha[i2]. Returns true on a
// meaningful update.
func (t *trainer) takeStep(i1, i2 int) bool {
	if i1 == i2 {
		return false
	}
	t.tries++
	a1, a2 := t.alpha[i1], t.alpha[i2]
	y1, y2 := t.y[i1], t.y[i2]
	e1, e2 := t.errs[i1], t.errs[i2]
	s := y1 * y2
	c := t.p.C

	var lo, hi float64
	if y1 != y2 {
		lo = math.Max(0, a2-a1)
		hi = math.Min(c, c+a2-a1)
	} else {
		lo = math.Max(0, a1+a2-c)
		hi = math.Min(c, a1+a2)
	}
	if lo == hi {
		return false
	}

	k11 := t.kernel(i1, i1)
	k12 := t.kernel(i1, i2)
	k22 := t.kernel(i2, i2)
	eta := k11 + k22 - 2*k12

	var a2new float64
	if eta > 0 {
		a2new = a2 + y2*(e1-e2)/eta
		if a2new < lo {
			a2new = lo
		} else if a2new > hi {
			a2new = hi
		}
	} else {
		// Degenerate: evaluate the objective at both clip ends.
		f1 := y1*(e1+t.b) - a1*k11 - s*a2*k12
		f2 := y2*(e2+t.b) - s*a1*k12 - a2*k22
		l1 := a1 + s*(a2-lo)
		h1 := a1 + s*(a2-hi)
		objL := l1*f1 + lo*f2 + 0.5*l1*l1*k11 + 0.5*lo*lo*k22 + s*lo*l1*k12
		objH := h1*f1 + hi*f2 + 0.5*h1*h1*k11 + 0.5*hi*hi*k22 + s*hi*h1*k12
		switch {
		case objL < objH-1e-12:
			a2new = lo
		case objL > objH+1e-12:
			a2new = hi
		default:
			a2new = a2
		}
	}
	if math.Abs(a2new-a2) < 1e-12*(a2new+a2+1e-12) {
		return false
	}
	a1new := a1 + s*(a2-a2new)

	// Update threshold b.
	b1 := e1 + y1*(a1new-a1)*k11 + y2*(a2new-a2)*k12 + t.b
	b2 := e2 + y1*(a1new-a1)*k12 + y2*(a2new-a2)*k22 + t.b
	var bnew float64
	switch {
	case a1new > 0 && a1new < c:
		bnew = b1
	case a2new > 0 && a2new < c:
		bnew = b2
	default:
		bnew = (b1 + b2) / 2
	}
	bdelta := bnew - t.b
	t.b = bnew
	t.iters++

	d1 := y1 * (a1new - a1)
	d2 := y2 * (a2new - a2)
	// E_i tracks u(x_i) - y_i under u = w·x - b; the incremental update is
	// exact and applies to i1 and i2 as well (their errors become 0 only
	// when they end up non-bound). With the matrix cached, walking the two
	// rows directly keeps this O(n) sweep — SMO's hottest loop — free of
	// per-element calls and bounds checks.
	if t.kcache != nil {
		r1, r2 := t.kcache[i1], t.kcache[i2]
		for i := range t.errs {
			t.errs[i] += d1*float64(r1[i]) + d2*float64(r2[i]) - bdelta
		}
	} else {
		for i := range t.errs {
			t.errs[i] += d1*t.kernel(i1, i) + d2*t.kernel(i2, i) - bdelta
		}
	}
	t.alpha[i1] = a1new
	t.alpha[i2] = a2new
	return true
}
