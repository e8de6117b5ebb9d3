package svm

import (
	"errors"
	"fmt"
	"math"
)

// This file is the offline "compile" step that transforms a trained Model
// into a serving form optimised for single-verdict latency. Two modes:
//
//   - CompileExact flattens the support vectors row-major with their
//     squared norms precomputed. It is the form Model itself scores
//     through (predict.go), so its decision values are Model's, bit for
//     bit; as a persistent artifact it rides the classifier payload.
//   - CompileRFF replaces the RBF kernel expansion with an explicit
//     random-Fourier-feature map (see rff.go): the per-support-vector sum
//     collapses into RFFDim cosine features with precomputed output
//     weights, optionally quantized to float32. Decision values are
//     approximate; callers gate the approximation on holdout accuracy
//     before letting it serve (the retrainer's compile gate does exactly
//     that).
//
// Both forms are plain exported-field structs, so a CompiledModel rides
// inside the classifier gob payload through the model registry and
// hot-swaps into a serving process like any other version.

// CompileMode selects the compiled serving form.
type CompileMode uint8

const (
	// CompileExact flattens the support vectors; exact decision values.
	CompileExact CompileMode = iota + 1
	// CompileRFF builds an explicit random-Fourier-feature map; decision
	// values approximate the RBF expansion to gate-checked tolerance.
	CompileRFF
)

// String names the mode as it appears in manifests ("exact", "rff").
func (m CompileMode) String() string {
	switch m {
	case CompileExact:
		return "exact"
	case CompileRFF:
		return "rff"
	default:
		return fmt.Sprintf("CompileMode(%d)", uint8(m))
	}
}

// ParseCompileMode maps a manifest/flag string back to a mode.
func ParseCompileMode(s string) (CompileMode, error) {
	switch s {
	case "exact":
		return CompileExact, nil
	case "rff":
		return CompileRFF, nil
	default:
		return 0, fmt.Errorf("svm: unknown compile mode %q (want exact or rff)", s)
	}
}

// DefaultRFFDim is the Fourier-feature count used when CompileOptions does
// not set one. The choice is a latency/fidelity dial: per-verdict cost is
// linear in the dimension (~9ns per feature row on a 2.1GHz server core,
// so 64 rows keep the decision value comfortably under the serving path's
// one-microsecond budget), while the Monte-Carlo kernel error shrinks as
// 1/sqrt(dim). 64 is enough for the paper's 7-9 dimensional feature space
// to pass the compile gate at zero tolerance in practice; raise it via
// CompileOptions (frappetrain -rff-dim) when a model's margin is tighter —
// the gate refuses any dimension that regresses holdout accuracy, so a
// too-small map is caught, never served.
const DefaultRFFDim = 64

// CompileOptions configures Compile.
type CompileOptions struct {
	// Mode selects the serving form (required).
	Mode CompileMode
	// RFFDim is the Fourier-feature count for CompileRFF (default
	// DefaultRFFDim).
	RFFDim int
	// Seed drives the feature-map sampling; the same model, seed and dim
	// always compile to the identical artifact (default 1).
	Seed int64
	// Quantize stores the RFF projection, phases and output weights as
	// float32, halving the artifact and improving cache density. Ignored
	// by CompileExact, which is exact by definition.
	Quantize bool
}

// DefaultCompileOptions returns the options the retrainer uses: the given
// mode, DefaultRFFDim features, seed 1, quantization on.
func DefaultCompileOptions(mode CompileMode) CompileOptions {
	return CompileOptions{Mode: mode, RFFDim: DefaultRFFDim, Seed: 1, Quantize: true}
}

// CompiledModel is a compiled serving artifact. All fields are exported so
// the artifact gob-encodes inside a classifier payload; construct with
// Compile, never by hand.
type CompiledModel struct {
	Mode     CompileMode
	InputDim int
	B        float64

	// CompileExact: the flattened support-vector matrix.
	Kernel  Kernel
	Coef    []float64
	SVFlat  []float64 // len(Coef) x InputDim, row-major
	SVNorms []float64

	// CompileRFF: the explicit feature map. Exactly one of the
	// float32/float64 triples is populated, per Quantized.
	RFFDim    int
	Seed      int64
	Quantized bool
	W32       []float32 // RFFDim x InputDim projection, row-major
	Phase32   []float32
	Amp32     []float32 // per-feature output weight, (2/D)*sum_i c_i*cos(w_j.sv_i+b_j)
	W64       []float64
	Phase64   []float64
	Amp64     []float64

	// runW/runPhase/runAmp are the serving-time float64 arrays. Quantized
	// artifacts transport float32 (half the payload) but serve from a
	// one-time float64 widening — float64(float32) is exact, so the
	// quantization error is unchanged while the hot loop sheds its per-
	// element conversions. Built by Compile and rebuilt by Validate (every
	// load path calls it); unexported, so gob never carries them.
	runW, runPhase, runAmp []float64
}

// prepareRuntime builds the serving arrays from whichever weight triple
// the artifact transports.
func (c *CompiledModel) prepareRuntime() {
	if c.Mode != CompileRFF {
		return
	}
	if !c.Quantized {
		c.runW, c.runPhase, c.runAmp = c.W64, c.Phase64, c.Amp64
		return
	}
	c.runW = widen(c.W32)
	c.runPhase = widen(c.Phase32)
	c.runAmp = widen(c.Amp32)
}

func widen(xs []float32) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = float64(v)
	}
	return out
}

// Compile builds a compiled serving artifact from a trained model.
func Compile(m *Model, o CompileOptions) (*CompiledModel, error) {
	if m == nil {
		return nil, errors.New("svm: compile: nil model")
	}
	if len(m.SV) == 0 {
		return nil, errors.New("svm: compile: model has no support vectors")
	}
	dim := len(m.SV[0])
	if dim == 0 {
		return nil, errors.New("svm: compile: zero-dimensional support vectors")
	}
	if len(m.Coef) != len(m.SV) {
		return nil, fmt.Errorf("svm: compile: %d coefficients for %d support vectors", len(m.Coef), len(m.SV))
	}
	for i, sv := range m.SV {
		if len(sv) != dim {
			return nil, fmt.Errorf("svm: compile: support vector %d has dim %d, want %d", i, len(sv), dim)
		}
	}
	switch o.Mode {
	case CompileExact:
		return compileExact(m, dim), nil
	case CompileRFF:
		return compileRFF(m, dim, o)
	default:
		return nil, fmt.Errorf("svm: compile: unknown mode %v", o.Mode)
	}
}

func compileExact(m *Model, dim int) *CompiledModel {
	c := &CompiledModel{
		Mode:     CompileExact,
		InputDim: dim,
		B:        m.B,
		Kernel:   m.Kernel,
		Coef:     append([]float64(nil), m.Coef...),
		SVFlat:   make([]float64, len(m.SV)*dim),
		SVNorms:  make([]float64, len(m.SV)),
	}
	for i, sv := range m.SV {
		copy(c.SVFlat[i*dim:(i+1)*dim], sv)
		c.SVNorms[i] = SqNorm(sv)
	}
	return c
}

func compileRFF(m *Model, dim int, o CompileOptions) (*CompiledModel, error) {
	if m.Kernel.Type != RBF {
		return nil, fmt.Errorf("svm: compile: RFF requires an RBF kernel, model uses %v", m.Kernel.Type)
	}
	d := o.RFFDim
	if d <= 0 {
		d = DefaultRFFDim
	}
	seed := o.Seed
	if seed == 0 {
		seed = 1
	}
	fm, err := sampleRFF(dim, d, m.Kernel.Gamma, seed)
	if err != nil {
		return nil, err
	}
	// Collapse the kernel expansion: f(x) = B + sum_i c_i K(sv_i, x)
	// ~= B + sum_j A_j cos(w_j.x + b_j), A_j = (2/D) sum_i c_i cos(w_j.sv_i + b_j).
	// math.Cos here (one-time, offline) keeps the precomputed weights as
	// accurate as the map allows; the serving path uses fastCos.
	amp := make([]float64, d)
	scale := 2 / float64(d)
	for j := 0; j < d; j++ {
		row := fm.w[j*dim : j*dim+dim]
		var a float64
		for i, sv := range m.SV {
			s := fm.phase[j]
			for k, v := range sv {
				s += row[k] * v
			}
			a += m.Coef[i] * math.Cos(s)
		}
		amp[j] = scale * a
	}
	c := &CompiledModel{
		Mode:      CompileRFF,
		InputDim:  dim,
		B:         m.B,
		RFFDim:    d,
		Seed:      seed,
		Quantized: o.Quantize,
	}
	if o.Quantize {
		c.W32 = make([]float32, len(fm.w))
		for i, v := range fm.w {
			c.W32[i] = float32(v)
		}
		c.Phase32 = make([]float32, d)
		c.Amp32 = make([]float32, d)
		for j := 0; j < d; j++ {
			c.Phase32[j] = float32(fm.phase[j])
			c.Amp32[j] = float32(amp[j])
		}
	} else {
		c.W64 = fm.w
		c.Phase64 = fm.phase
		c.Amp64 = amp
	}
	c.prepareRuntime()
	return c, nil
}

// Validate checks the structural invariants a gob-loaded artifact must
// hold before it may serve; reload paths call it so a truncated or
// hand-edited payload is refused rather than panicking mid-request.
func (c *CompiledModel) Validate() error {
	if c == nil {
		return errors.New("svm: nil compiled model")
	}
	if c.InputDim <= 0 {
		return errors.New("svm: compiled model has no input dimension")
	}
	switch c.Mode {
	case CompileExact:
		n := len(c.Coef)
		if n == 0 || len(c.SVFlat) != n*c.InputDim || len(c.SVNorms) != n {
			return fmt.Errorf("svm: exact compiled model inconsistent (%d coef, %d flat, %d norms, dim %d)",
				n, len(c.SVFlat), len(c.SVNorms), c.InputDim)
		}
	case CompileRFF:
		if c.RFFDim <= 0 {
			return errors.New("svm: rff compiled model has no features")
		}
		if c.Quantized {
			if len(c.W32) != c.RFFDim*c.InputDim || len(c.Phase32) != c.RFFDim || len(c.Amp32) != c.RFFDim {
				return errors.New("svm: rff compiled model (float32) has inconsistent shapes")
			}
		} else {
			if len(c.W64) != c.RFFDim*c.InputDim || len(c.Phase64) != c.RFFDim || len(c.Amp64) != c.RFFDim {
				return errors.New("svm: rff compiled model (float64) has inconsistent shapes")
			}
		}
	default:
		return fmt.Errorf("svm: compiled model has unknown mode %v", c.Mode)
	}
	c.prepareRuntime()
	return nil
}

// String renders the artifact for manifests and logs, e.g.
// "rff(d=128,seed=1,float32)" or "exact(sv=412)".
func (c *CompiledModel) String() string {
	if c == nil {
		return "none"
	}
	switch c.Mode {
	case CompileExact:
		return fmt.Sprintf("exact(sv=%d)", len(c.Coef))
	case CompileRFF:
		prec := "float64"
		if c.Quantized {
			prec = "float32"
		}
		return fmt.Sprintf("rff(d=%d,seed=%d,%s)", c.RFFDim, c.Seed, prec)
	default:
		return c.Mode.String()
	}
}

// DecisionValue computes f(x) against the compiled artifact. The warm path
// allocates nothing: every loop walks preallocated flat arrays. A vector
// of the wrong dimension (possible only via a corrupt load that also
// defeated Validate) degrades to the bias rather than panicking.
func (c *CompiledModel) DecisionValue(x []float64) float64 {
	if len(x) != c.InputDim {
		return c.B
	}
	switch c.Mode {
	case CompileExact:
		s := c.B
		d := c.InputDim
		xNorm := SqNorm(x)
		for i := range c.SVNorms {
			s += c.Coef[i] * c.Kernel.EvalNorm(c.SVFlat[i*d:i*d+d], x, c.SVNorms[i], xNorm)
		}
		return s
	case CompileRFF:
		if c.runW == nil {
			// Hand-decoded artifact that skipped Validate: build the
			// serving arrays on first use (single-writer callers only;
			// every concurrent-serving path validates first).
			c.prepareRuntime()
		}
		return rffDecision(c.B, x, c.runW, c.runPhase, c.runAmp)
	default:
		return c.B
	}
}

// rffDecision walks the feature map four rows at a time: the four dot
// products carry independent dependency chains, so the out-of-order core
// overlaps their FMA latencies instead of serialising on one accumulator.
func rffDecision(b float64, x, w, phase, amp []float64) float64 {
	s := b
	dim := len(x)
	d := len(phase)
	j := 0
	for ; j+3 < d; j += 4 {
		base := j * dim
		row0 := w[base : base+dim]
		row1 := w[base+dim : base+2*dim]
		row2 := w[base+2*dim : base+3*dim]
		row3 := w[base+3*dim : base+4*dim]
		a0 := phase[j]
		a1 := phase[j+1]
		a2 := phase[j+2]
		a3 := phase[j+3]
		for k, v := range x {
			a0 += row0[k] * v
			a1 += row1[k] * v
			a2 += row2[k] * v
			a3 += row3[k] * v
		}
		s += amp[j]*fastCos(a0) + amp[j+1]*fastCos(a1) +
			amp[j+2]*fastCos(a2) + amp[j+3]*fastCos(a3)
	}
	for ; j < d; j++ {
		row := w[j*dim : j*dim+dim]
		a := phase[j]
		for k, v := range x {
			a += row[k] * v
		}
		s += amp[j] * fastCos(a)
	}
	return s
}

// DecisionValues scores every row. Rows write only their own slot, so the
// result equals a DecisionValue loop; no worker pool here — the compiled
// point is that one row is already cheap.
func (c *CompiledModel) DecisionValues(xs [][]float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = c.DecisionValue(x)
	}
	return out
}

// Predict returns +1 or -1 for x.
func (c *CompiledModel) Predict(x []float64) float64 {
	if c.DecisionValue(x) >= 0 {
		return 1
	}
	return -1
}
