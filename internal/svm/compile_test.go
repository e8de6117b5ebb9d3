package svm

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"frappe/internal/telemetry"
)

// trainBlobs fits an RBF model on two Gaussian blobs in dim dimensions —
// the workhorse fixture for the compile tests.
func trainBlobs(t testing.TB, dim, n int, seed int64) (*Model, [][]float64, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var xs [][]float64
	var ys []float64
	for i := 0; i < n; i++ {
		x := make([]float64, dim)
		label := -1.0
		center := 0.25
		if i%2 == 0 {
			label = 1
			center = 0.75
		}
		for k := range x {
			x[k] = center + rng.NormFloat64()*0.12
		}
		xs = append(xs, x)
		ys = append(ys, label)
	}
	m, err := Train(xs, ys, DefaultParams(dim))
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return m, xs, ys
}

func TestFastCos(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	worst := 0.0
	for i := 0; i < 20000; i++ {
		x := (rng.Float64() - 0.5) * 200 // [-100, 100]
		if d := math.Abs(fastCos(x) - math.Cos(x)); d > worst {
			worst = d
		}
	}
	// The design budget is (pi/2)^14/14! < 7e-9 plus range-reduction
	// rounding; anything past 1e-8 means the polynomial or the reduction
	// broke.
	if worst > 1e-8 {
		t.Errorf("fastCos worst-case error = %.3g, want <= 1e-8", worst)
	}
	for _, x := range []float64{0, math.Pi / 2, math.Pi, -math.Pi, 2 * math.Pi, 1e6} {
		if d := math.Abs(fastCos(x) - math.Cos(x)); d > 1e-6 {
			t.Errorf("fastCos(%v) = %v, want %v", x, fastCos(x), math.Cos(x))
		}
	}
}

// TestCompileExactMatchesModel checks Model and its exact compiled form
// bit for bit against a reference summed here, straight over m.SV in SV
// order — Model scores through a CompiledModel itself, so comparing the
// two with each other alone would prove nothing.
func TestCompileExactMatchesModel(t *testing.T) {
	m, xs, _ := trainBlobs(t, 3, 200, 2)
	c, err := Compile(m, CompileOptions{Mode: CompileExact})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	reference := func(x []float64) float64 {
		s := m.B
		for i, sv := range m.SV {
			s += m.Coef[i] * m.Kernel.EvalNorm(sv, x, SqNorm(sv), SqNorm(x))
		}
		return s
	}
	modelBatch := m.DecisionValues(xs)
	compiledBatch := c.DecisionValues(xs)
	for i, x := range xs {
		want := reference(x)
		if got := m.DecisionValue(x); got != want {
			t.Fatalf("model decision %v != reference %v at %v", got, want, x)
		}
		if got := c.DecisionValue(x); got != want {
			t.Fatalf("exact compiled decision %v != reference %v at %v", got, want, x)
		}
		if modelBatch[i] != want || compiledBatch[i] != want {
			t.Fatalf("batch row %d diverges from reference (model %v, compiled %v, want %v)",
				i, modelBatch[i], compiledBatch[i], want)
		}
	}
}

// rffParity measures verdict agreement and max decision-value drift
// between a model and an RFF compile of the given dimension, over the
// training points plus fresh probes — the same two quantities the
// promotion gate inspects.
func rffParity(t *testing.T, m *Model, xs [][]float64, dim int) (agreement, maxDrift float64) {
	t.Helper()
	o := DefaultCompileOptions(CompileRFF)
	o.RFFDim = dim
	c, err := Compile(m, o)
	if err != nil {
		t.Fatalf("Compile(rff,%d): %v", dim, err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	rng := rand.New(rand.NewSource(4))
	probes := append([][]float64(nil), xs...)
	for i := 0; i < 300; i++ {
		probes = append(probes, []float64{rng.Float64(), rng.Float64(), rng.Float64()})
	}
	agree := 0
	for _, x := range probes {
		ev, cv := m.DecisionValue(x), c.DecisionValue(x)
		if (ev >= 0) == (cv >= 0) {
			agree++
		}
		if d := math.Abs(ev - cv); d > maxDrift {
			maxDrift = d
		}
	}
	return float64(agree) / float64(len(probes)), maxDrift
}

// TestCompileRFFParity is the exact-vs-RFF property test: at a generous
// feature count the approximation must track the kernel expansion almost
// pointwise, and widening the map must tighten it (the 1/sqrt(D)
// Monte-Carlo contraction that makes the gate's job meaningful).
func TestCompileRFFParity(t *testing.T) {
	m, xs, _ := trainBlobs(t, 3, 300, 3)
	agree512, drift512 := rffParity(t, m, xs, 512)
	if agree512 < 0.97 {
		t.Errorf("exact/RFF(512) verdict agreement = %.4f, want >= 0.97", agree512)
	}
	if drift512 > 0.5 {
		t.Errorf("max decision-value drift at D=512 = %.4f, want <= 0.5", drift512)
	}
	agreeDef, driftDef := rffParity(t, m, xs, DefaultRFFDim)
	if agreeDef < 0.85 {
		t.Errorf("exact/RFF(%d) verdict agreement = %.4f, want >= 0.85", DefaultRFFDim, agreeDef)
	}
	if drift512 > driftDef*1.1 {
		t.Errorf("widening the map did not tighten drift: D=512 %.4f vs D=%d %.4f",
			drift512, DefaultRFFDim, driftDef)
	}
}

func TestCompileRFFDeterministic(t *testing.T) {
	m, _, _ := trainBlobs(t, 2, 120, 5)
	o := DefaultCompileOptions(CompileRFF)
	a, err := Compile(m, o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(m, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.W32) != len(b.W32) || len(a.Amp32) != len(b.Amp32) {
		t.Fatalf("shape mismatch between identical compiles")
	}
	for i := range a.W32 {
		if a.W32[i] != b.W32[i] {
			t.Fatalf("W32[%d] differs between identical compiles", i)
		}
	}
	for j := range a.Amp32 {
		if a.Amp32[j] != b.Amp32[j] || a.Phase32[j] != b.Phase32[j] {
			t.Fatalf("weights differ at %d between identical compiles", j)
		}
	}
	// A different seed must produce a different map.
	o2 := o
	o2.Seed = 99
	c, err := Compile(m, o2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.W32 {
		if a.W32[i] != c.W32[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced an identical feature map")
	}
}

// TestCompileQuantizationParity pins the float32 quantization cost: the
// quantized and float64 artifacts share the same sampled map, so their
// decision values may differ only by rounding noise, and verdicts away
// from the margin must be identical.
func TestCompileQuantizationParity(t *testing.T) {
	m, xs, _ := trainBlobs(t, 3, 250, 6)
	o := DefaultCompileOptions(CompileRFF)
	q, err := Compile(m, o)
	if err != nil {
		t.Fatal(err)
	}
	o.Quantize = false
	f, err := Compile(m, o)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Quantized || f.Quantized {
		t.Fatalf("quantization flags wrong: %v / %v", q.Quantized, f.Quantized)
	}
	for _, x := range xs {
		qv, fv := q.DecisionValue(x), f.DecisionValue(x)
		if d := math.Abs(qv - fv); d > 1e-3 {
			t.Fatalf("quantization moved decision value by %v at %v", d, x)
		}
		if math.Abs(fv) > 1e-2 && (qv >= 0) != (fv >= 0) {
			t.Fatalf("quantization flipped an off-margin verdict at %v (%v vs %v)", x, qv, fv)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile(nil, CompileOptions{Mode: CompileExact}); err == nil {
		t.Error("nil model: want error")
	}
	if _, err := Compile(&Model{}, CompileOptions{Mode: CompileExact}); err == nil {
		t.Error("no support vectors: want error")
	}
	if _, err := Compile(&Model{SV: [][]float64{{}}, Coef: []float64{1}}, CompileOptions{Mode: CompileExact}); err == nil {
		t.Error("zero-dim support vectors: want error")
	}
	if _, err := Compile(&Model{SV: [][]float64{{1}, {2}}, Coef: []float64{1}}, CompileOptions{Mode: CompileExact}); err == nil {
		t.Error("coef/SV mismatch: want error")
	}
	if _, err := Compile(&Model{SV: [][]float64{{1}, {2, 3}}, Coef: []float64{1, -1}}, CompileOptions{Mode: CompileExact}); err == nil {
		t.Error("ragged support vectors: want error")
	}
	m, _, _ := trainBlobs(t, 2, 80, 7)
	if _, err := Compile(m, CompileOptions{}); err == nil {
		t.Error("unset mode: want error")
	}
	lin := &Model{
		SV:     [][]float64{{0, 1}, {1, 0}},
		Coef:   []float64{1, -1},
		Kernel: Kernel{Type: Linear},
	}
	if _, err := Compile(lin, DefaultCompileOptions(CompileRFF)); err == nil {
		t.Error("RFF over a linear kernel: want error")
	}
	if _, err := ParseCompileMode("nope"); err == nil {
		t.Error("ParseCompileMode(nope): want error")
	}
	for _, s := range []string{"exact", "rff"} {
		mode, err := ParseCompileMode(s)
		if err != nil || mode.String() != s {
			t.Errorf("ParseCompileMode(%q) = %v, %v", s, mode, err)
		}
	}
}

func TestCompiledValidateCatchesCorruption(t *testing.T) {
	m, _, _ := trainBlobs(t, 2, 100, 8)
	exact, err := Compile(m, CompileOptions{Mode: CompileExact})
	if err != nil {
		t.Fatal(err)
	}
	rff, err := Compile(m, DefaultCompileOptions(CompileRFF))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*CompiledModel{exact, rff} {
		if err := c.Validate(); err != nil {
			t.Fatalf("healthy artifact failed Validate: %v", err)
		}
	}
	var nilModel *CompiledModel
	if err := nilModel.Validate(); err == nil {
		t.Error("nil artifact: want error")
	}
	bad := *exact
	bad.SVFlat = bad.SVFlat[:len(bad.SVFlat)-1]
	if err := bad.Validate(); err == nil {
		t.Error("truncated SVFlat: want error")
	}
	bad2 := *rff
	bad2.W32 = nil
	if err := bad2.Validate(); err == nil {
		t.Error("missing W32: want error")
	}
	bad3 := *rff
	bad3.Mode = CompileMode(77)
	if err := bad3.Validate(); err == nil {
		t.Error("unknown mode: want error")
	}
	bad4 := *exact
	bad4.InputDim = 0
	if err := bad4.Validate(); err == nil {
		t.Error("zero input dim: want error")
	}
	// Dimension-mismatched inputs degrade to the bias, never panic.
	if got := rff.DecisionValue([]float64{1, 2, 3, 4}); got != rff.B {
		t.Errorf("wrong-dim decision = %v, want bias %v", got, rff.B)
	}
}

func TestCompiledModelString(t *testing.T) {
	m, _, _ := trainBlobs(t, 2, 80, 9)
	exact, _ := Compile(m, CompileOptions{Mode: CompileExact})
	if got := exact.String(); got != "exact(sv="+itoa(len(exact.Coef))+")" {
		t.Errorf("exact String = %q", got)
	}
	rff, _ := Compile(m, DefaultCompileOptions(CompileRFF))
	if got := rff.String(); got != "rff(d=64,seed=1,float32)" {
		t.Errorf("rff String = %q", got)
	}
	var none *CompiledModel
	if none.String() != "none" {
		t.Error("nil String should be none")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// TestEmptyBatchLeavesMetricsUntouched pins the DecisionValues fix: a
// zero-row batch must not observe the batch-predict histogram (skewing the
// duration distribution) or clobber the worker gauge.
func TestEmptyBatchLeavesMetricsUntouched(t *testing.T) {
	m, _, _ := trainBlobs(t, 2, 80, 10)
	reg := telemetry.Default()
	batchPredictWorkers.With().Set(7) // sentinel
	_, before := reg.HistogramSum("frappe_svm_batch_predict_seconds")
	for _, xs := range [][][]float64{nil, {}} {
		out := m.DecisionValues(xs)
		if len(out) != 0 {
			t.Fatalf("empty batch returned %d values", len(out))
		}
	}
	if _, after := reg.HistogramSum("frappe_svm_batch_predict_seconds"); after != before {
		t.Errorf("empty batch observed the duration histogram (%d -> %d)", before, after)
	}
	if got := reg.GaugeValue("frappe_svm_batch_predict_workers"); got != 7 {
		t.Errorf("empty batch moved the worker gauge to %v", got)
	}
}

// TestCorruptModelDegradesToBias pins the guard in Model's exact form: a
// gob-loaded model with zero-dimensional or ragged support vectors does
// not compile, so it must answer with the bias, not index out of bounds.
func TestCorruptModelDegradesToBias(t *testing.T) {
	for name, m := range map[string]*Model{
		"zero-dim": {SV: [][]float64{{}, {}}, Coef: []float64{1, -1}, B: 0.5, Kernel: Kernel{Type: RBF, Gamma: 1}},
		"ragged":   {SV: [][]float64{{1}, {1, 2}}, Coef: []float64{1, -1}, B: 0.5, Kernel: Kernel{Type: RBF, Gamma: 1}},
		"mismatch": {SV: [][]float64{{1}}, Coef: []float64{1, -1}, B: 0.5, Kernel: Kernel{Type: RBF, Gamma: 1}},
	} {
		if got := m.DecisionValue([]float64{1}); got != 0.5 {
			t.Errorf("%s: DecisionValue = %v, want bias 0.5", name, got)
		}
		for _, v := range m.DecisionValues([][]float64{{1}, {2}}) {
			if v != 0.5 {
				t.Errorf("%s: batch value = %v, want bias 0.5", name, v)
			}
		}
	}
}

// TestCompiledRFFZeroAllocAndLatency is the CI inference-budget gate: the
// warm compiled decision path must allocate nothing and answer a single
// verdict in under a microsecond at the default RFF dimension. Skipped
// under the race detector, whose instrumentation invalidates both numbers.
func TestCompiledRFFZeroAllocAndLatency(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc/latency budgets are meaningless under the race detector")
	}
	m, xs, _ := trainBlobs(t, 7, 300, 11)
	c, err := Compile(m, DefaultCompileOptions(CompileRFF))
	if err != nil {
		t.Fatal(err)
	}
	x := xs[0]
	c.DecisionValue(x) // warm
	if allocs := testing.AllocsPerRun(1000, func() { c.DecisionValue(x) }); allocs > 0 {
		t.Errorf("compiled RFF DecisionValue allocates %.1f/op, want 0", allocs)
	}

	// Median over batches of calls; three attempts absorb scheduler noise
	// on shared CI runners.
	const calls = 2000
	budget := time.Microsecond
	var best time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		samples := make([]time.Duration, 9)
		for s := range samples {
			start := time.Now()
			for i := 0; i < calls; i++ {
				c.DecisionValue(x)
			}
			samples[s] = time.Since(start) / calls
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		med := samples[len(samples)/2]
		if best == 0 || med < best {
			best = med
		}
		if best < budget {
			return
		}
	}
	t.Errorf("compiled RFF p50 per verdict = %v, want < %v", best, budget)
}

func benchModel(b *testing.B, dim int) (*Model, []float64) {
	m, xs, _ := trainBlobs(b, dim, 400, 12)
	return m, xs[0]
}

func BenchmarkDecisionValueModel(b *testing.B) {
	m, x := benchModel(b, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.DecisionValue(x)
	}
}

func BenchmarkDecisionValueExact(b *testing.B) {
	m, x := benchModel(b, 7)
	c, err := Compile(m, CompileOptions{Mode: CompileExact})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.DecisionValue(x)
	}
}

func BenchmarkDecisionValueRFF(b *testing.B) {
	m, x := benchModel(b, 7)
	c, err := Compile(m, DefaultCompileOptions(CompileRFF))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.DecisionValue(x)
	}
}

func BenchmarkDecisionValueRFFFloat64(b *testing.B) {
	m, x := benchModel(b, 7)
	o := DefaultCompileOptions(CompileRFF)
	o.Quantize = false
	c, err := Compile(m, o)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.DecisionValue(x)
	}
}
