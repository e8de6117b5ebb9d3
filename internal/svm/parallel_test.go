package svm

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// blobs returns a reproducible two-class dataset with some overlap, large
// enough that training exercises the parallel kernel precompute.
func blobs(seed int64, n int) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		x := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		y := -1.0
		if x[0]+x[1]+0.3*rng.NormFloat64() > 0 {
			y = 1
		}
		xs[i], ys[i] = x, y
	}
	return xs, ys
}

func modelsEqual(a, b *Model) bool {
	if a.B != b.B || len(a.Coef) != len(b.Coef) || len(a.SV) != len(b.SV) {
		return false
	}
	for i := range a.Coef {
		if a.Coef[i] != b.Coef[i] {
			return false
		}
	}
	for i := range a.SV {
		if len(a.SV[i]) != len(b.SV[i]) {
			return false
		}
		for j := range a.SV[i] {
			if a.SV[i][j] != b.SV[i][j] {
				return false
			}
		}
	}
	return true
}

// The parallel precompute partitions rows across GOMAXPROCS workers; every
// cell is a pure function of (i, j), so the trained model must be
// bit-identical no matter how many workers ran.
func TestTrainDeterministicAcrossGOMAXPROCS(t *testing.T) {
	xs, ys := blobs(42, 220)
	p := DefaultParams(3)

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	var ref *Model
	for _, procs := range []int{1, 4, prev} {
		runtime.GOMAXPROCS(procs)
		m := trainOrDie(t, xs, ys, p)
		if ref == nil {
			ref = m
			continue
		}
		if !modelsEqual(ref, m) {
			t.Errorf("GOMAXPROCS=%d produced a different model than GOMAXPROCS=1: b %v vs %v, sv %d vs %d",
				procs, m.B, ref.B, m.NumSV(), ref.NumSV())
		}
	}
}

// DecisionValues must agree bit-for-bit with the scalar DecisionValue: both
// sum in support-vector order over the same flattened cache.
func TestDecisionValuesMatchScalar(t *testing.T) {
	xs, ys := blobs(7, 150)
	m := trainOrDie(t, xs, ys, DefaultParams(3))
	got := m.DecisionValues(xs)
	if len(got) != len(xs) {
		t.Fatalf("DecisionValues returned %d values for %d rows", len(got), len(xs))
	}
	for i, x := range xs {
		if want := m.DecisionValue(x); got[i] != want {
			t.Fatalf("row %d: batch %v != scalar %v", i, got[i], want)
		}
	}
}

// Model's exact compiled form is built lazily via sync.Once, so a model
// that arrived over gob (which drops the unexported fields) must predict
// identically to the model that trained.
func TestDecisionValuesSurviveGobRoundTrip(t *testing.T) {
	xs, ys := blobs(13, 120)
	m := trainOrDie(t, xs, ys, DefaultParams(3))
	want := m.DecisionValues(xs)

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := loaded.DecisionValues(xs)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: loaded model %v != original %v", i, got[i], want[i])
		}
	}
}

func TestDecisionValuesEmptyBatch(t *testing.T) {
	xs, ys := blobs(3, 60)
	m := trainOrDie(t, xs, ys, DefaultParams(3))
	if got := m.DecisionValues(nil); len(got) != 0 {
		t.Fatalf("DecisionValues(nil) = %v, want empty", got)
	}
}

// Race workout: concurrent first-use of the lazy exact compiled form plus
// concurrent training (each Train runs its own parallel precompute pool).
// Run with -race to make this meaningful; it is cheap enough to always run.
func TestParallelPredictAndTrainRace(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	xs, ys := blobs(99, 160)
	m := trainOrDie(t, xs, ys, DefaultParams(3))

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.DecisionValues(xs[:40])
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := Train(xs, ys, DefaultParams(3)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

func BenchmarkKernelPrecompute500(b *testing.B) {
	xs, ys := blobs(1, 500)
	p := DefaultParams(3)
	p.MaxPasses = 1 // keep SMO iterations minimal; precompute dominates
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(xs, ys, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecisionValuesBatch(b *testing.B) {
	xs, ys := blobs(2, 400)
	m, err := Train(xs, ys, DefaultParams(3))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.DecisionValues(xs)
	}
}
