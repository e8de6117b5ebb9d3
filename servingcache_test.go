package frappe

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"frappe/internal/telemetry"
)

// Deterministic unit tests for the watchdog serving cache: singleflight
// collapse with a gated compute function, and TTL expiry on a fake clock.

func TestVerdictCacheSingleflightCollapse(t *testing.T) {
	c := newVerdictCache(time.Minute)
	var calls atomic.Int32
	entered := make(chan struct{})
	release := make(chan struct{})

	reg := telemetry.Default()
	sharedBefore := reg.CounterValue("frappe_verdict_singleflight_shared_total")

	compute := func(context.Context) Assessment {
		if calls.Add(1) == 1 {
			close(entered)
			<-release
		}
		return Assessment{AppID: "app", Score: 0.7}
	}

	leaderDone := make(chan Assessment, 1)
	go func() { leaderDone <- c.do(context.Background(), "app", "", compute) }()
	<-entered

	const followers = 4
	results := make([]Assessment, followers)
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = c.do(context.Background(), "app", "", compute)
		}(i)
	}
	close(release)
	wg.Wait()
	leader := <-leaderDone

	// Followers either joined the leader's flight or, arriving after it
	// finished, hit the cached entry — in no case do they recompute.
	if got := calls.Load(); got != 1 {
		t.Errorf("compute ran %d times, want 1", got)
	}
	if leader.Cached {
		t.Error("leader assessment claims to be cached")
	}
	for i, a := range results {
		if !a.Cached {
			t.Errorf("follower %d not marked cached", i)
		}
		if a.Score != leader.Score || a.AppID != leader.AppID {
			t.Errorf("follower %d diverged: %+v vs leader %+v", i, a, leader)
		}
	}
	// Every follower was answered by the flight or the cache, so the two
	// counters together account for all of them.
	shared := reg.CounterValue("frappe_verdict_singleflight_shared_total") - sharedBefore
	if shared > followers {
		t.Errorf("singleflight shared count = %d, want <= %d", shared, followers)
	}
}

func TestVerdictCacheTTLExpiry(t *testing.T) {
	c := newVerdictCache(30 * time.Second)
	now := time.Unix(1_700_000_000, 0)
	c.now = func() time.Time { return now }

	var calls int
	compute := func(context.Context) Assessment {
		calls++
		return Assessment{AppID: "app", Score: float64(calls)}
	}
	ctx := context.Background()

	a := c.do(ctx, "app", "", compute)
	if a.Cached || a.Score != 1 {
		t.Fatalf("first do = %+v", a)
	}
	// Inside the TTL: served from cache.
	now = now.Add(29 * time.Second)
	a = c.do(ctx, "app", "", compute)
	if !a.Cached || a.Score != 1 {
		t.Fatalf("within-TTL do = %+v (calls=%d)", a, calls)
	}
	// Past the TTL: recomputed, fresh value cached again.
	now = now.Add(2 * time.Second)
	a = c.do(ctx, "app", "", compute)
	if a.Cached || a.Score != 2 {
		t.Fatalf("post-TTL do = %+v (calls=%d)", a, calls)
	}
	if calls != 2 {
		t.Errorf("compute ran %d times, want 2", calls)
	}
}

// TestVerdictCacheModelSwapInvalidation: a model swap flushes the table,
// and even an entry that survives (the flush/flight race) is treated as
// stale the moment a lookup arrives under a newer model ID — a superseded
// model's verdict is never served.
func TestVerdictCacheModelSwapInvalidation(t *testing.T) {
	c := newVerdictCache(time.Minute)
	ctx := context.Background()
	calls := 0
	compute := func(modelID string, score float64) func(context.Context) Assessment {
		return func(context.Context) Assessment {
			calls++
			return Assessment{AppID: "app", Score: score, ModelVersion: modelID}
		}
	}

	a := c.do(ctx, "app", "v1-aaaa", compute("v1-aaaa", 1))
	if a.Cached || a.Score != 1 {
		t.Fatalf("first v1 do = %+v", a)
	}
	if a = c.do(ctx, "app", "v1-aaaa", compute("v1-aaaa", 1)); !a.Cached {
		t.Fatalf("second v1 do not cached: %+v", a)
	}

	// Swap: flush, then lookups run under the new model's ID.
	c.flush()
	a = c.do(ctx, "app", "v2-bbbb", compute("v2-bbbb", 2))
	if a.Cached || a.Score != 2 || a.ModelVersion != "v2-bbbb" {
		t.Fatalf("post-swap do = %+v", a)
	}

	// Defence in depth: plant a v1-stamped entry (as if an old-model
	// flight completed after the flush) — a v2 lookup must not serve it.
	c.mu.Lock()
	c.entries["app"] = verdictEntry{
		a:   Assessment{AppID: "app", Score: 1, ModelVersion: "v1-aaaa"},
		exp: c.now().Add(time.Minute),
	}
	c.mu.Unlock()
	a = c.do(ctx, "app", "v2-bbbb", compute("v2-bbbb", 2))
	if a.Cached || a.ModelVersion != "v2-bbbb" {
		t.Fatalf("stale-model entry served: %+v", a)
	}
	if calls != 3 {
		t.Errorf("compute ran %d times, want 3", calls)
	}
}

// TestVerdictCacheFlightNotJoinedAcrossSwap: a request arriving after a
// swap must not join a flight still computing under the old model.
func TestVerdictCacheFlightNotJoinedAcrossSwap(t *testing.T) {
	c := newVerdictCache(time.Minute)
	ctx := context.Background()
	entered := make(chan struct{})
	release := make(chan struct{})
	oldDone := make(chan Assessment, 1)
	go func() {
		oldDone <- c.do(ctx, "app", "v1-aaaa", func(context.Context) Assessment {
			close(entered)
			<-release
			return Assessment{AppID: "app", Score: 1, ModelVersion: "v1-aaaa"}
		})
	}()
	<-entered

	// Swap lands while the v1 flight is in progress.
	c.flush()
	newDone := make(chan Assessment, 1)
	go func() {
		newDone <- c.do(ctx, "app", "v2-bbbb", func(context.Context) Assessment {
			return Assessment{AppID: "app", Score: 2, ModelVersion: "v2-bbbb"}
		})
	}()
	got := <-newDone
	if got.Cached || got.ModelVersion != "v2-bbbb" || got.Score != 2 {
		t.Fatalf("post-swap request joined the old flight: %+v", got)
	}
	close(release)
	old := <-oldDone
	if old.ModelVersion != "v1-aaaa" {
		t.Fatalf("old flight result corrupted: %+v", old)
	}
	// The old flight's late result must not have poisoned the table for v2.
	a := c.do(ctx, "app", "v2-bbbb", func(context.Context) Assessment {
		t.Error("v2 verdict should have been cached")
		return Assessment{AppID: "app", ModelVersion: "v2-bbbb"}
	})
	if !a.Cached || a.ModelVersion != "v2-bbbb" {
		t.Fatalf("v2 verdict not served from cache: %+v", a)
	}
}

// TestVerdictCacheJoinerCancellationCause: a joiner whose own context
// dies while waiting on another request's in-flight assessment is a
// client-side cancellation, not an upstream failure — it must carry
// CauseCanceled (504), not CauseUpstream (502), and must not stop the
// leader's flight from completing and caching normally.
func TestVerdictCacheJoinerCancellationCause(t *testing.T) {
	c := newVerdictCache(time.Minute)
	entered := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan Assessment, 1)
	go func() {
		leaderDone <- c.do(context.Background(), "app", "", func(context.Context) Assessment {
			close(entered)
			<-release
			return Assessment{AppID: "app", Score: 0.9}
		})
	}()
	<-entered

	jctx, cancel := context.WithCancel(context.Background())
	joinerDone := make(chan Assessment, 1)
	go func() {
		joinerDone <- c.do(jctx, "app", "", func(context.Context) Assessment {
			t.Error("joiner recomputed instead of joining the flight")
			return Assessment{AppID: "app"}
		})
	}()
	cancel()
	got := <-joinerDone
	if got.Cause != CauseCanceled {
		t.Errorf("canceled joiner cause = %q, want %q", got.Cause, CauseCanceled)
	}
	if got.Error != context.Canceled.Error() {
		t.Errorf("canceled joiner error = %q, want %q", got.Error, context.Canceled)
	}
	if got.Cached {
		t.Errorf("canceled joiner claims to be cached: %+v", got)
	}

	// The flight the joiner abandoned is unaffected: the leader's result
	// lands and is cached for the next caller.
	close(release)
	if leader := <-leaderDone; leader.Score != 0.9 || leader.Error != "" {
		t.Fatalf("leader flight corrupted: %+v", leader)
	}
	if a := c.do(context.Background(), "app", "", func(context.Context) Assessment {
		t.Error("leader verdict should have been cached")
		return Assessment{AppID: "app"}
	}); !a.Cached || a.Score != 0.9 {
		t.Fatalf("leader verdict not served from cache: %+v", a)
	}
}

func TestVerdictCacheDoesNotCacheFailures(t *testing.T) {
	c := newVerdictCache(time.Minute)
	var calls int
	ctx := context.Background()
	fail := func(context.Context) Assessment {
		calls++
		return Assessment{AppID: "app", Error: "upstream exploded", Cause: CauseUpstream}
	}
	for i := 0; i < 2; i++ {
		if a := c.do(ctx, "app", "", fail); a.Cached {
			t.Errorf("failure %d served from cache: %+v", i, a)
		}
	}
	if calls != 2 {
		t.Errorf("compute ran %d times, want 2 (failures must not be cached)", calls)
	}
	// A deleted-app verdict IS conclusive and cacheable.
	deleted := func(context.Context) Assessment {
		calls++
		return Assessment{AppID: "gone", Deleted: true, Malicious: true,
			Cause: CauseDeleted, Error: "app removed from the graph"}
	}
	first := c.do(ctx, "gone", "", deleted)
	second := c.do(ctx, "gone", "", deleted)
	if first.Cached || !second.Cached {
		t.Errorf("deleted verdict caching: first=%+v second=%+v", first, second)
	}
}

// TestVerdictCacheCanceledLeaderNotInherited: a leader whose own context
// ends mid-crawl gets its own cancellation (504), and a joiner whose
// context is still live does not inherit that failure: it crawls itself
// and gets a clean, uncached verdict. Without the cache, a crawl under a
// done context is a cancellation too.
func TestVerdictCacheCanceledLeaderNotInherited(t *testing.T) {
	w, _ := sharedWorld(t)
	clf := trainedClassifier(t)
	ids := liveApps(t, 1)
	if len(ids) == 0 {
		t.Skip("world has no live apps")
	}
	slow, err := StartServicesWithFaults(w, &FaultSpec{
		Seed:       5,
		PerService: map[string]ServiceFaults{"graph": {Latency: 200 * time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	watchdog := func(ttl time.Duration) *Watchdog {
		wd, err := NewWatchdogWith(clf, WatchdogConfig{GraphURL: slow.GraphURL, WOTURL: slow.WOTURL, VerdictTTL: ttl})
		if err != nil {
			t.Fatal(err)
		}
		return wd
	}

	done, cancel := context.WithCancel(context.Background())
	cancel()
	if a := watchdog(0).Assess(done, ids[0]); a.Cause != CauseCanceled {
		t.Errorf("uncached assessment under a canceled context: cause %q, want %q (%+v)", a.Cause, CauseCanceled, a)
	}

	wd := watchdog(time.Minute)
	misses := func() uint64 { return telemetry.Default().CounterValue("frappe_verdict_cache_total", "miss") }
	waitMisses := func(n uint64) {
		for deadline := time.Now().Add(5 * time.Second); misses() < n; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("cache misses stuck at %d, want %d", misses(), n)
			}
		}
	}
	base := misses()
	lctx, lcancel := context.WithCancel(context.Background())
	defer lcancel()
	leader := make(chan Assessment, 1)
	go func() { leader <- wd.Assess(lctx, ids[0]) }()
	waitMisses(base + 1)
	joiner := make(chan Assessment, 1)
	go func() { joiner <- wd.Assess(context.Background(), ids[0]) }()
	// The joiner's miss is counted under the lock that finds the leader's
	// flight, so from here on it is waiting on that flight.
	waitMisses(base + 2)
	lcancel()

	if a := <-leader; a.Cause != CauseCanceled || a.Cached {
		t.Errorf("canceled leader: cause %q cached %v, want %q uncached (%+v)", a.Cause, a.Cached, CauseCanceled, a)
	}
	a := <-joiner
	if a.Error != "" || a.Cause != "" || a.Cached {
		t.Fatalf("live joiner inherited the leader's cancellation: %+v", a)
	}
	if n := misses() - base; n != 2 {
		t.Errorf("two lookups counted %d cache misses, want 2", n)
	}
	if again := wd.Assess(context.Background(), ids[0]); !again.Cached || again.Score != a.Score {
		t.Errorf("joiner's verdict not cached: %+v", again)
	}
}
