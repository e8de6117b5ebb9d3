package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"frappe/internal/lab"
)

// Golden report digests: the sha256 of the report artifact for one quick
// and one full run. They pin every rendered number; a change that moves
// one must say so by updating the digest.
//
// Both were measured with go1.24.0 on linux/amd64, where the compiler
// never fuses a*b+c; the module's go1.22 floor has not been checked
// against them. On arm64, ppc64x, s390x, riscv64 and loong64 the compiler
// fuses a*b+c into one FMA instruction, so float-derived numbers can round
// differently and the digests may not match there even when the program
// is correct.
const (
	quickReportSHA256 = "792bcf140258e24a900d4ee7a3b543804abd67ef6d806a610948aeb80c32b3f2" // {Scale: 0.02, Quick: true}, 5,860 bytes
	fullReportSHA256  = "7f5876f3271e0065ba5077ace600417b4f1a0f1b3dd5744d627c0312aabc20f0" // {Scale: 0.03}, 8,996 bytes
)

// checkGolden fails unless report hashes to want, printing the digest it
// got.
func checkGolden(t *testing.T, what string, report []byte, want string) {
	t.Helper()
	sum := sha256.Sum256(report)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("%s: report sha256 %s (%d bytes), want %s", what, got, len(report), want)
	}
}

// labRun executes the pipeline for opts against the store in dir.
func labRun(t *testing.T, dir string, opts PipelineOptions) *lab.Result {
	t.Helper()
	store, err := lab.OpenStore(dir)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	res, err := lab.Run(context.Background(), Pipeline(opts), lab.Options{Store: store, Force: opts.Forced()})
	if err != nil {
		t.Fatalf("lab.Run: %v", err)
	}
	return res
}

func reportOf(t *testing.T, res *lab.Result) []byte {
	t.Helper()
	data, ok := res.Artifact("report")
	if !ok {
		t.Fatal("no report artifact")
	}
	return data
}

func TestPipelinePlanShape(t *testing.T) {
	full := Pipeline(PipelineOptions{Scale: 0.02})
	quick := Pipeline(PipelineOptions{Scale: 0.02, Quick: true})
	if len(full) <= len(quick) {
		t.Fatalf("full pipeline has %d stages, quick %d; full must add the classifier stages",
			len(full), len(quick))
	}
	byName := make(map[string]lab.Stage, len(full))
	for _, s := range full {
		byName[s.Name] = s
	}
	for _, name := range []string{"generate", "ingest", "datasets", "crawl", "train", "table8", "report"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("full pipeline missing stage %q", name)
		}
	}
	for _, dep := range byName["table8"].Deps {
		if _, ok := byName[dep]; !ok {
			t.Fatalf("table8 depends on unknown stage %q", dep)
		}
	}
	for _, s := range quick {
		if s.Name == "train" || s.Name == "table5" {
			t.Fatalf("quick pipeline must not include %q", s.Name)
		}
	}
}

// TestQuickPipelineMatchesGoldenAndCaches is the report bar at -quick:
// the report must hash to the golden digest, and a repeat run must be 100%
// cache hits with the identical report.
func TestQuickPipelineMatchesGoldenAndCaches(t *testing.T) {
	opts := PipelineOptions{Scale: 0.02, Quick: true}
	dir := t.TempDir()
	cold := labRun(t, dir, opts)
	if cold.Hits != 0 {
		t.Errorf("cold run: %d hits, want 0", cold.Hits)
	}
	checkGolden(t, "cold run", reportOf(t, cold), quickReportSHA256)

	warm := labRun(t, dir, opts)
	if warm.Misses != 0 {
		t.Fatalf("warm run: %d misses, want 0", warm.Misses)
	}
	if warm.Hits != len(warm.Stages) {
		t.Errorf("warm run: %d hits over %d stages", warm.Hits, len(warm.Stages))
	}
	checkGolden(t, "cached run", reportOf(t, warm), quickReportSHA256)
}

// TestResumedReportIsGolden: a generation resumed from a WAL with a torn
// tail and a lost monitor offset renders the same report as a clean one,
// and leaves the log as the clean run wrote it rather than appending the
// generation a second time.
func TestResumedReportIsGolden(t *testing.T) {
	walDir := t.TempDir()
	opts := PipelineOptions{Scale: 0.02, Quick: true, WALDir: walDir}
	checkGolden(t, "run writing the WAL", reportOf(t, labRun(t, t.TempDir(), opts)), quickReportSHA256)

	logFiles := func() (segs []string, size int64) {
		segs, err := filepath.Glob(filepath.Join(walDir, "seg-*.wal"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("no WAL segments in %s (err %v)", walDir, err)
		}
		for _, seg := range segs {
			fi, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			size += fi.Size()
		}
		return segs, size
	}
	segs, written := logFiles()
	newest := segs[len(segs)-1] // fixed-width hex names sort by first index
	fi, err := os.Stat(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(newest, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(walDir, "offsets", "monitor")); err != nil {
		t.Fatal(err)
	}

	checkGolden(t, "resumed run", reportOf(t, labRun(t, t.TempDir(), opts)), quickReportSHA256)
	if _, resumed := logFiles(); resumed != written {
		t.Errorf("resumed run left a %d-byte log, want the %d bytes the clean run wrote", resumed, written)
	}
}

// TestWALRunOnWarmStoreRerunsOnlyGenerate: a run with a WAL against a
// warm store forces only generate, the one stage that writes the log. Its
// artifact comes out byte-identical, so every other stage hits and the
// report keeps its golden digest.
func TestWALRunOnWarmStoreRerunsOnlyGenerate(t *testing.T) {
	store := t.TempDir()
	opts := PipelineOptions{Scale: 0.02, Quick: true}
	checkGolden(t, "cold run", reportOf(t, labRun(t, store, opts)), quickReportSHA256)

	opts.WALDir = t.TempDir()
	res := labRun(t, store, opts)
	if res.Misses != 1 || res.Stages["generate"].Status != lab.StatusRan {
		t.Errorf("warm run with a WAL: %d misses, generate %s; want 1 miss, generate ran",
			res.Misses, res.Stages["generate"].Status)
	}
	checkGolden(t, "warm run with a WAL", reportOf(t, res), quickReportSHA256)
	if segs, _ := filepath.Glob(filepath.Join(opts.WALDir, "seg-*.wal")); len(segs) == 0 {
		t.Errorf("warm run wrote no WAL segments to %s", opts.WALDir)
	}
}

// TestFullPipelineInvalidationCone drives the full (classifier) pipeline:
// its report must hash to the golden digest, and config edits must re-run
// exactly the affected downstream cone, verified through per-stage
// statuses and run counters.
func TestFullPipelineInvalidationCone(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run in -short mode")
	}
	opts := PipelineOptions{Scale: 0.03}
	dir := t.TempDir()

	cold := labRun(t, dir, opts)
	if cold.Hits != 0 {
		t.Errorf("cold run: %d hits, want 0", cold.Hits)
	}
	golden := reportOf(t, cold)
	checkGolden(t, "cold run", golden, fullReportSHA256)

	// Changing table5's ratios must re-run exactly table5 and report. The
	// crawl artifact is opened (decoded) to feed table5, never re-run.
	edited := opts
	edited.Table5Ratios = []int{1, 7}
	res := labRun(t, dir, edited)
	for name, rep := range res.Stages {
		want := lab.StatusHit
		if name == "table5" || name == "report" {
			want = lab.StatusRan
		}
		if rep.Status != want {
			t.Errorf("after ratio edit, stage %s = %s, want %s", name, rep.Status, want)
		}
	}
	if res.Misses != 2 {
		t.Errorf("after ratio edit: %d misses, want 2 (table5, report)", res.Misses)
	}
	if crawl := res.Stages["crawl"]; crawl.Runs != 0 {
		t.Errorf("crawl ran %d times to feed table5; its stored artifact should have been opened instead", crawl.Runs)
	}
	if res.Opens == 0 {
		t.Error("expected table5 to open the cached crawl artifact")
	}
	if bytes.Equal(reportOf(t, res), golden) {
		t.Error("report unchanged after table5 ratio edit")
	}

	// Restoring the original options must be a pure cache hit again.
	warm := labRun(t, dir, opts)
	if warm.Misses != 0 {
		t.Fatalf("restored options: %d misses, want 0", warm.Misses)
	}
	checkGolden(t, "restored options", reportOf(t, warm), fullReportSHA256)

	// A seed change reaches the world generator, so every stage re-runs.
	reseeded := opts
	reseeded.Seed = opts.WorldSeed() + 1
	res = labRun(t, dir, reseeded)
	if res.Hits != 0 {
		t.Errorf("after seed change: %d hits, want 0 (everything downstream of the world)", res.Hits)
	}
	if bytes.Equal(reportOf(t, res), golden) {
		t.Error("report unchanged after seed change")
	}
}
