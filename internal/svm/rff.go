package svm

import (
	"errors"
	"math"
	"math/rand"
)

// Random Fourier features (Rahimi & Recht, "Random Features for
// Large-Scale Kernel Machines", NIPS 2007): the RBF kernel
// K(u,v) = exp(-gamma*|u-v|^2) is the Fourier transform of a Gaussian
// spectral density, so it is approximated in expectation by an explicit
// D-dimensional feature map
//
//	z_j(x) = sqrt(2/D) * cos(w_j . x + b_j),   w_j ~ N(0, 2*gamma*I),
//	                                           b_j ~ U[0, 2*pi)
//
// with K(u,v) ~= z(u).z(v). A kernel expansion f(x) = sum_i c_i K(sv_i, x)
// then collapses to a single dot product f(x) ~= a.z(x): the per-support-
// vector work disappears entirely, which is what turns the paper's
// libsvm-shaped O(#SV*d) prediction into an O(D*d) pass independent of the
// training-set size. The map is drawn from a seeded PRNG so compiling the
// same model with the same options is bit-reproducible.

// rffMap is one sampled feature map: D directions over dim inputs.
type rffMap struct {
	dim   int       // input dimensionality
	d     int       // number of Fourier features
	w     []float64 // d x dim projection matrix, row-major
	phase []float64 // d phases b_j in [0, 2*pi)
}

// sampleRFF draws a D-feature map for an RBF kernel with the given gamma.
// The spectral density of exp(-gamma*|u-v|^2) is N(0, 2*gamma*I).
func sampleRFF(dim, d int, gamma float64, seed int64) (*rffMap, error) {
	if dim <= 0 {
		return nil, errors.New("svm: rff: input dimension must be positive")
	}
	if d <= 0 {
		return nil, errors.New("svm: rff: feature count must be positive")
	}
	if gamma <= 0 {
		return nil, errors.New("svm: rff: gamma must be positive")
	}
	rng := rand.New(rand.NewSource(seed))
	sigma := math.Sqrt(2 * gamma)
	m := &rffMap{
		dim:   dim,
		d:     d,
		w:     make([]float64, d*dim),
		phase: make([]float64, d),
	}
	for i := range m.w {
		m.w[i] = sigma * rng.NormFloat64()
	}
	for j := range m.phase {
		m.phase[j] = 2 * math.Pi * rng.Float64()
	}
	return m, nil
}

// feature evaluates the j-th Fourier feature of x, without the sqrt(2/D)
// scale (callers fold it into their output weights once, at compile time).
func (m *rffMap) feature(j int, x []float64) float64 {
	row := m.w[j*m.dim : j*m.dim+m.dim]
	s := m.phase[j]
	for k, v := range x {
		s += row[k] * v
	}
	return fastCos(s)
}

const (
	twoPi    = 2 * math.Pi
	invTwoPi = 1 / twoPi
	halfPi   = math.Pi / 2
)

// fastCos approximates cos(x) for any finite x. Range reduction maps x to
// [0, pi/2] (RoundToEven and Abs compile to single instructions on amd64,
// where math.Round does not; the two differ only on exact .5 ties, which
// both reduce to +-pi), then an even 12th-order Taylor polynomial finishes
// the job; the worst-case error, (pi/2)^14/14! at the interval edge, is
// below 7e-9 — noise next to the Monte-Carlo error of the feature map
// itself, which the promotion gate bounds anyway. Replacing math.Cos with
// this polynomial is what keeps the compiled RFF decision value
// comfortably under a microsecond.
func fastCos(x float64) float64 {
	x = math.Abs(x - twoPi*math.RoundToEven(x*invTwoPi)) // [0, pi]
	sign := 1.0
	if x > halfPi {
		x = math.Pi - x
		sign = -1
	}
	z := x * x
	// cos(x) = 1 - x^2/2! + x^4/4! - ... + x^12/12!, Horner form.
	return sign * (1 + z*(-1.0/2+z*(1.0/24+z*(-1.0/720+z*(1.0/40320+z*(-1.0/3628800+z*(1.0/479001600)))))))
}
