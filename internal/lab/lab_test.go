package lab

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"frappe/internal/telemetry"
)

func newStore(t *testing.T) *Store {
	t.Helper()
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func run(t *testing.T, stages []Stage, store *Store) *Result {
	t.Helper()
	res, err := Run(context.Background(), stages, Options{Store: store, Telemetry: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func status(t *testing.T, res *Result, stage string) StageStatus {
	t.Helper()
	rep, ok := res.Stages[stage]
	if !ok {
		t.Fatalf("no report for stage %q", stage)
	}
	return rep.Status
}

// chain builds a -> b -> c where each artifact embeds the stage's config
// and its input, so output changes propagate and unchanged output cuts off.
func chain(aCfg, bCfg, cCfg string, counts map[string]*atomic.Int64) []Stage {
	mk := func(name, cfg string, deps ...string) Stage {
		return Stage{
			Name:   name,
			Deps:   deps,
			Config: cfg,
			Run: func(c *StageContext) ([]byte, error) {
				counts[name].Add(1)
				in := ""
				for _, d := range deps {
					b, err := c.Artifact(d)
					if err != nil {
						return nil, err
					}
					in += string(b) + "|"
				}
				return []byte(name + ":" + cfg + "<" + in), nil
			},
		}
	}
	return []Stage{
		mk("a", aCfg),
		mk("b", bCfg, "a"),
		mk("c", cCfg, "b"),
	}
}

func counters(names ...string) map[string]*atomic.Int64 {
	m := map[string]*atomic.Int64{}
	for _, n := range names {
		m[n] = &atomic.Int64{}
	}
	return m
}

func TestPlanRejectsBadGraphs(t *testing.T) {
	store := newStore(t)
	noop := func(*StageContext) ([]byte, error) { return nil, nil }
	cases := []struct {
		name   string
		stages []Stage
		want   string
	}{
		{"cycle", []Stage{
			{Name: "a", Deps: []string{"b"}, Run: noop},
			{Name: "b", Deps: []string{"a"}, Run: noop},
		}, "cycle"},
		{"unknown dep", []Stage{{Name: "a", Deps: []string{"ghost"}, Run: noop}}, "unknown"},
		{"self dep", []Stage{{Name: "a", Deps: []string{"a"}, Run: noop}}, "itself"},
		{"duplicate", []Stage{{Name: "a", Run: noop}, {Name: "a", Run: noop}}, "duplicate"},
		{"no run", []Stage{{Name: "a"}}, "no Run"},
	}
	for _, tc := range cases {
		_, err := Run(context.Background(), tc.stages, Options{Store: store, Telemetry: telemetry.New()})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestSecondRunAllHits(t *testing.T) {
	store := newStore(t)
	counts := counters("a", "b", "c")
	res1 := run(t, chain("1", "1", "1", counts), store)
	if res1.Misses != 3 || res1.Hits != 0 {
		t.Fatalf("cold run: hits=%d misses=%d, want 0/3", res1.Hits, res1.Misses)
	}
	res2 := run(t, chain("1", "1", "1", counts), store)
	if res2.Hits != 3 || res2.Misses != 0 {
		t.Fatalf("warm run: hits=%d misses=%d, want 3/0", res2.Hits, res2.Misses)
	}
	for n, c := range counts {
		if c.Load() != 1 {
			t.Errorf("stage %s ran %d times, want 1", n, c.Load())
		}
	}
}

func TestConfigChangeInvalidatesDownstreamCone(t *testing.T) {
	store := newStore(t)
	counts := counters("a", "b", "c")
	run(t, chain("1", "1", "1", counts), store)

	// Changing b's config re-runs exactly b and c; a stays cached.
	res := run(t, chain("1", "2", "1", counts), store)
	if got := status(t, res, "a"); got != StatusHit {
		t.Errorf("a: %s, want hit", got)
	}
	for _, s := range []string{"b", "c"} {
		if got := status(t, res, s); got != StatusRan {
			t.Errorf("%s: %s, want ran", s, got)
		}
	}
	if counts["a"].Load() != 1 || counts["b"].Load() != 2 || counts["c"].Load() != 2 {
		t.Errorf("run counts a/b/c = %d/%d/%d, want 1/2/2",
			counts["a"].Load(), counts["b"].Load(), counts["c"].Load())
	}

	// Changing the root's config re-runs everything.
	res = run(t, chain("2", "2", "1", counts), store)
	for _, s := range []string{"a", "b", "c"} {
		if got := status(t, res, s); got != StatusRan {
			t.Errorf("%s after root change: %s, want ran", s, got)
		}
	}
}

func TestEarlyCutoffWhenArtifactUnchanged(t *testing.T) {
	store := newStore(t)
	runs := counters("a", "b")
	mk := func(cfg string) []Stage {
		return []Stage{
			{Name: "a", Config: cfg, Run: func(*StageContext) ([]byte, error) {
				runs["a"].Add(1)
				return []byte("constant"), nil // output independent of config
			}},
			{Name: "b", Deps: []string{"a"}, Config: "x", Run: func(c *StageContext) ([]byte, error) {
				runs["b"].Add(1)
				in, err := c.Artifact("a")
				if err != nil {
					return nil, err
				}
				return append([]byte("b<"), in...), nil
			}},
		}
	}
	run(t, mk("1"), store)
	res := run(t, mk("2"), store)
	if got := status(t, res, "a"); got != StatusRan {
		t.Fatalf("a: %s, want ran", got)
	}
	if got := status(t, res, "b"); got != StatusHit {
		t.Fatalf("b: %s, want hit — a's artifact did not change", got)
	}
	if runs["b"].Load() != 1 {
		t.Fatalf("b ran %d times, want 1", runs["b"].Load())
	}
}

func TestValueOpenAndMaterialize(t *testing.T) {
	store := newStore(t)
	var aRuns, opens atomic.Int64
	mk := func(withOpen bool) []Stage {
		a := Stage{Name: "a", Run: func(c *StageContext) ([]byte, error) {
			aRuns.Add(1)
			c.SetValue("live-value")
			return []byte("payload"), nil
		}}
		if withOpen {
			a.Open = func(data []byte) (any, error) {
				opens.Add(1)
				return "opened:" + string(data), nil
			}
		}
		b := Stage{Name: "b", Deps: []string{"a"}, Run: func(c *StageContext) ([]byte, error) {
			v, err := c.Value("a")
			if err != nil {
				return nil, err
			}
			return []byte(v.(string)), nil
		}}
		return []Stage{a, b}
	}

	// Cold: b sees the live value.
	res := run(t, mk(true), store)
	if art, _ := res.Artifact("b"); string(art) != "live-value" {
		t.Fatalf("cold b artifact = %q", art)
	}
	// Force b to re-run while a hits: a's value comes from Open.
	bNew := mk(true)
	bNew[1].Config = "v2"
	res = run(t, bNew, store)
	if status(t, res, "a") != StatusHit || status(t, res, "b") != StatusRan {
		t.Fatalf("a=%s b=%s, want hit/ran", status(t, res, "a"), status(t, res, "b"))
	}
	if art, _ := res.Artifact("b"); string(art) != "opened:payload" {
		t.Fatalf("b artifact = %q, want opened:payload", art)
	}
	if opens.Load() != 1 || res.Opens != 1 {
		t.Fatalf("opens = %d / result %d, want 1/1", opens.Load(), res.Opens)
	}

	// Without an Open hook the value is materialized by re-running a:
	// status stays hit, but a's Run executes once more.
	store2 := newStore(t)
	aRuns.Store(0)
	run(t, mk(false), store2)
	noOpen := mk(false)
	noOpen[1].Config = "v2"
	res = run(t, noOpen, store2)
	if status(t, res, "a") != StatusHit {
		t.Fatalf("a = %s, want hit", status(t, res, "a"))
	}
	if art, _ := res.Artifact("b"); string(art) != "live-value" {
		t.Fatalf("b artifact = %q, want live-value", art)
	}
	if aRuns.Load() != 2 {
		t.Fatalf("a ran %d times, want 2 (cold + materialization)", aRuns.Load())
	}
	if res.Materializations != 1 {
		t.Fatalf("materializations = %d, want 1", res.Materializations)
	}
	if res.Stages["a"].Runs != 1 {
		t.Fatalf("a report runs = %d, want 1 materialization this run", res.Stages["a"].Runs)
	}
}

func TestCorruptObjectReadsAsMissAndRepairs(t *testing.T) {
	store := newStore(t)
	counts := counters("a", "b", "c")
	res := run(t, chain("1", "1", "1", counts), store)
	sha := res.Stages["b"].SHA256

	// Corrupt b's object in place.
	objPath := filepath.Join(store.Root(), objectsDir, "sha256-"+sha)
	if err := os.WriteFile(objPath, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	res = run(t, chain("1", "1", "1", counts), store)
	if got := status(t, res, "b"); got != StatusRan {
		t.Fatalf("b after corruption: %s, want ran", got)
	}
	// b's re-run produced identical bytes, so c still hits (early cutoff).
	if got := status(t, res, "c"); got != StatusHit {
		t.Fatalf("c after b repair: %s, want hit", got)
	}
	// The object is repaired: a third run is all hits.
	res = run(t, chain("1", "1", "1", counts), store)
	if res.Hits != 3 {
		t.Fatalf("post-repair hits = %d, want 3", res.Hits)
	}
}

func TestFailFastSkipsDownstreamAndResumes(t *testing.T) {
	store := newStore(t)
	boom := errors.New("boom")
	failing := true
	mk := func() []Stage {
		return []Stage{
			{Name: "ok", Config: "1", Run: func(*StageContext) ([]byte, error) { return []byte("fine"), nil }},
			// bad depends on ok so ok deterministically completes (and
			// caches) before the failure cancels the run.
			{Name: "bad", Deps: []string{"ok"}, Config: "1", Run: func(*StageContext) ([]byte, error) {
				if failing {
					return nil, boom
				}
				return []byte("fixed"), nil
			}},
			{Name: "after", Deps: []string{"bad"}, Config: "1", Run: func(c *StageContext) ([]byte, error) {
				b, err := c.Artifact("bad")
				return append([]byte("after<"), b...), err
			}},
		}
	}
	res, err := Run(context.Background(), mk(), Options{Store: store, Telemetry: telemetry.New()})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if got := status(t, res, "after"); got != StatusSkipped {
		t.Fatalf("after = %s, want skipped", got)
	}

	// The failure did not poison the cache: a fixed re-run resumes, with
	// the stage that succeeded before served from cache.
	failing = false
	res = run(t, mk(), store)
	if got := status(t, res, "ok"); got != StatusHit {
		t.Fatalf("ok on resume = %s, want hit", got)
	}
	if got := status(t, res, "bad"); got != StatusRan {
		t.Fatalf("bad on resume = %s, want ran", got)
	}
	if got := status(t, res, "after"); got != StatusRan {
		t.Fatalf("after on resume = %s, want ran", got)
	}
}

func TestCancellationStopsRunButKeepsCompletedArtifacts(t *testing.T) {
	store := newStore(t)
	ctx, cancel := context.WithCancel(context.Background())
	stages := []Stage{
		{Name: "first", Config: "1", Run: func(*StageContext) ([]byte, error) { return []byte("one"), nil }},
		{Name: "second", Deps: []string{"first"}, Config: "1", Run: func(c *StageContext) ([]byte, error) {
			cancel() // simulate ctrl-C mid-run
			<-c.Context().Done()
			return nil, c.Context().Err()
		}},
		{Name: "third", Deps: []string{"second"}, Config: "1", Run: func(c *StageContext) ([]byte, error) {
			return []byte("three"), nil
		}},
	}
	_, err := Run(ctx, stages, Options{Store: store, Telemetry: telemetry.New()})
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	// Resume: first hits, second and third run.
	stages[1].Run = func(*StageContext) ([]byte, error) { return []byte("two"), nil }
	res := run(t, stages, store)
	if got := status(t, res, "first"); got != StatusHit {
		t.Fatalf("first on resume = %s, want hit", got)
	}
	if got := status(t, res, "third"); got != StatusRan {
		t.Fatalf("third on resume = %s, want ran", got)
	}
}

func TestUndeclaredDependencyIsAnError(t *testing.T) {
	store := newStore(t)
	stages := []Stage{
		{Name: "a", Run: func(*StageContext) ([]byte, error) { return []byte("x"), nil }},
		{Name: "b", Run: func(c *StageContext) ([]byte, error) {
			if _, err := c.Artifact("a"); err != nil {
				return nil, err
			}
			return []byte("y"), nil
		}},
	}
	_, err := Run(context.Background(), stages, Options{Store: store, Telemetry: telemetry.New()})
	if err == nil || !strings.Contains(err.Error(), "without declaring") {
		t.Fatalf("err = %v, want undeclared-dependency error", err)
	}
}

func TestForceRerunsEverything(t *testing.T) {
	store := newStore(t)
	counts := counters("a", "b", "c")
	run(t, chain("1", "1", "1", counts), store)
	res, err := Run(context.Background(), chain("1", "1", "1", counts), Options{
		Store: store, Telemetry: telemetry.New(), Force: ForceAll,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses != 3 || res.Hits != 0 {
		t.Fatalf("forced run: hits=%d misses=%d, want 0/3", res.Hits, res.Misses)
	}
}

// TestForcedStageKeepsDependentsCached: forcing one stage re-runs it, and
// when its artifact comes out unchanged its dependents still hit.
func TestForcedStageKeepsDependentsCached(t *testing.T) {
	store := newStore(t)
	counts := counters("a", "b", "c")
	run(t, chain("1", "1", "1", counts), store)
	res, err := Run(context.Background(), chain("1", "1", "1", counts), Options{
		Store: store, Telemetry: telemetry.New(), Force: func(stage string) bool { return stage == "a" },
	})
	if err != nil {
		t.Fatal(err)
	}
	if status(t, res, "a") != StatusRan || status(t, res, "b") != StatusHit || status(t, res, "c") != StatusHit {
		t.Fatalf("a=%s b=%s c=%s, want ran/hit/hit", status(t, res, "a"), status(t, res, "b"), status(t, res, "c"))
	}
	if res.Misses != 1 || res.Hits != 2 {
		t.Fatalf("hits=%d misses=%d, want 2/1", res.Hits, res.Misses)
	}
	if got := []int64{counts["a"].Load(), counts["b"].Load(), counts["c"].Load()}; got[0] != 2 || got[1] != 1 || got[2] != 1 {
		t.Fatalf("runs a/b/c = %v, want 2/1/1", got)
	}
}

func TestTelemetryCounters(t *testing.T) {
	store := newStore(t)
	reg := telemetry.New()
	counts := counters("a", "b", "c")
	if _, err := Run(context.Background(), chain("1", "1", "1", counts), Options{Store: store, Telemetry: reg}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), chain("1", "1", "1", counts), Options{Store: store, Telemetry: reg}); err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"a", "b", "c"} {
		if got := reg.CounterValue("frappe_lab_cache_misses_total", s); got != 1 {
			t.Errorf("misses{%s} = %d, want 1", s, got)
		}
		if got := reg.CounterValue("frappe_lab_cache_hits_total", s); got != 1 {
			t.Errorf("hits{%s} = %d, want 1", s, got)
		}
		if got := reg.CounterValue("frappe_lab_stage_runs_total", s); got != 1 {
			t.Errorf("runs{%s} = %d, want 1", s, got)
		}
	}
}

func TestWideFanOutRunsAllBranches(t *testing.T) {
	store := newStore(t)
	const branches = 32
	var total atomic.Int64
	stages := []Stage{{Name: "root", Run: func(*StageContext) ([]byte, error) { return []byte("r"), nil }}}
	for i := 0; i < branches; i++ {
		name := fmt.Sprintf("branch%02d", i)
		stages = append(stages, Stage{
			Name: name, Deps: []string{"root"}, Config: name,
			Run: func(c *StageContext) ([]byte, error) {
				total.Add(1)
				in, err := c.Artifact("root")
				if err != nil {
					return nil, err
				}
				return append([]byte(name+"<"), in...), nil
			},
		})
	}
	res := run(t, stages, store)
	if total.Load() != branches {
		t.Fatalf("ran %d branches, want %d", total.Load(), branches)
	}
	if res.Misses != branches+1 {
		t.Fatalf("misses = %d, want %d", res.Misses, branches+1)
	}
}
