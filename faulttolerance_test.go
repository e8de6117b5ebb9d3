package frappe

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"frappe/internal/telemetry"
)

// End-to-end fault tolerance: the watchdog pipeline against a stack with
// deterministic fault injection. These tests are the PR's acceptance
// story — transient faults are absorbed by retries and converge to the
// same verdicts a clean stack gives; sustained outages trip the circuit
// breaker and surface as 503s instead of hammering a dead upstream.

// trainedClassifier fits the shared world's Lite classifier once per call.
func trainedClassifier(t *testing.T) *Classifier {
	t.Helper()
	_, d := sharedWorld(t)
	records, labels := LabeledSample(d)
	clf, err := Train(records, labels, Options{Features: LiteFeatures(), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	return clf
}

// liveApps returns up to n live (not deleted) app IDs from each class.
func liveApps(t *testing.T, n int) []string {
	t.Helper()
	w, _ := sharedWorld(t)
	var ids []string
	pick := func(pool []string) {
		taken := 0
		for _, id := range pool {
			if taken == n {
				return
			}
			if _, err := w.Platform.Lookup(id); err == nil {
				ids = append(ids, id)
				taken++
			}
		}
	}
	pick(w.BenignIDs)
	pick(w.MaliciousIDs)
	return ids
}

// TestWatchdogConvergesUnderTransientFaults: with a quarter of requests
// 502ing, a handful hanging, and latency on every call, a watchdog with a
// retry budget reaches the same verdicts as one on a clean stack.
func TestWatchdogConvergesUnderTransientFaults(t *testing.T) {
	w, _ := sharedWorld(t)
	clf := trainedClassifier(t)
	ids := liveApps(t, 3)
	if len(ids) == 0 {
		t.Skip("world has no live apps")
	}

	clean, err := StartServices(w)
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	faulty, err := StartServicesWithFaults(w, &FaultSpec{
		Seed: 11,
		Default: ServiceFaults{
			ErrorRate: 0.25,
			HangRate:  0.03,
			Latency:   2 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer faulty.Close()

	cleanWD, err := NewWatchdog(clf, clean.GraphURL, clean.WOTURL)
	if err != nil {
		t.Fatal(err)
	}
	// Generous retry budget, breaker off: every transient fault must be
	// absorbed, none escalated.
	faultyWD, err := NewWatchdogWith(clf, WatchdogConfig{
		GraphURL:         faulty.GraphURL,
		WOTURL:           faulty.WOTURL,
		Timeout:          250 * time.Millisecond, // reclaims hung requests fast
		Retries:          7,
		BreakerThreshold: -1,
	})
	if err != nil {
		t.Fatal(err)
	}

	injectedBefore := injectedFaults()
	ctx := context.Background()
	for _, id := range ids {
		want := cleanWD.Assess(ctx, id)
		got := faultyWD.Assess(ctx, id)
		if want.Error != "" {
			t.Fatalf("clean assessment of %s failed: %s", id, want.Error)
		}
		if got.Error != "" {
			t.Errorf("faulted assessment of %s failed: %s (cause %s)", id, got.Error, got.Cause)
			continue
		}
		if got.Malicious != want.Malicious || got.Deleted != want.Deleted {
			t.Errorf("verdict for %s diverged under faults: clean=%+v faulted=%+v", id, want, got)
		}
	}
	if injectedFaults() == injectedBefore {
		t.Error("fault middleware injected nothing; the faulted run was not actually faulted")
	}
}

// injectedFaults sums the stack's injected-fault counters.
func injectedFaults() uint64 {
	reg := telemetry.Default()
	var total uint64
	for _, svc := range []string{"graph", "bitly", "wot", "socialbakers", "redirector"} {
		for _, kind := range []string{"error", "hang"} {
			total += reg.CounterValue("frappe_faults_injected_total", svc, kind)
		}
	}
	return total
}

// TestWatchdogSustainedOutageOpensBreaker: when the Graph API fails every
// request, the first /check reports an upstream failure (502) and the
// breaker opens; the next /check is rejected locally as 503 with a
// Retry-After, without touching the dead upstream.
func TestWatchdogSustainedOutageOpensBreaker(t *testing.T) {
	w, _ := sharedWorld(t)
	clf := trainedClassifier(t)
	ids := liveApps(t, 1)
	if len(ids) == 0 {
		t.Skip("world has no live apps")
	}

	faulty, err := StartServicesWithFaults(w, &FaultSpec{
		Seed:       3,
		PerService: map[string]ServiceFaults{"graph": {ErrorRate: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer faulty.Close()

	wd, err := NewWatchdogWith(clf, WatchdogConfig{
		GraphURL:         faulty.GraphURL,
		WOTURL:           faulty.WOTURL,
		Retries:          -1, // one attempt per fetch: breaker state is exact
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute,
		VerdictTTL:       time.Minute, // failures must NOT be cached
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(WatchdogHandler(wd, 10*time.Second))
	defer srv.Close()

	check := func() (*http.Response, Assessment) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/check?app=" + ids[0])
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var a Assessment
		if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
			t.Fatal(err)
		}
		return resp, a
	}

	// First check burns through the breaker threshold: the node read
	// (summary and feed in one request) fails, the install fails, the
	// circuit opens. The response is an upstream failure.
	resp, a := check()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("first check status = %d, want %d (assessment %+v)", resp.StatusCode, http.StatusBadGateway, a)
	}
	if a.Cause != CauseUpstream {
		t.Errorf("first check cause = %q, want %q", a.Cause, CauseUpstream)
	}

	// Second check is rejected by the open breaker before any upstream call.
	resp, a = check()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second check status = %d, want %d (assessment %+v)", resp.StatusCode, http.StatusServiceUnavailable, a)
	}
	if a.Cause != CauseBreakerOpen {
		t.Errorf("second check cause = %q, want %q", a.Cause, CauseBreakerOpen)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("breaker-open response carries no Retry-After")
	}
	if a.Cached {
		t.Error("breaker rejection claims to be cached; failures must not be cached")
	}
}

// TestCheckVerdictCacheAbsorbsRepeatedTraffic: a second /check for the
// same app inside the TTL is served from the verdict cache — no second
// crawl, and the response says so.
func TestCheckVerdictCacheAbsorbsRepeatedTraffic(t *testing.T) {
	w, _ := sharedWorld(t)
	clf := trainedClassifier(t)
	ids := liveApps(t, 1)
	if len(ids) == 0 {
		t.Skip("world has no live apps")
	}
	st, err := StartServices(w)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	wd, err := NewWatchdogWith(clf, WatchdogConfig{
		GraphURL:   st.GraphURL,
		WOTURL:     st.WOTURL,
		VerdictTTL: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(WatchdogHandler(wd, 10*time.Second))
	defer srv.Close()

	reg := telemetry.Default()
	hitsBefore := reg.CounterValue("frappe_verdict_cache_total", "hit")

	var first, second Assessment
	for i, dst := range []*Assessment{&first, &second} {
		resp, err := http.Get(srv.URL + "/check?app=" + ids[0])
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("check %d status = %d", i, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if first.Cached {
		t.Error("first check claims to be cached")
	}
	if !second.Cached {
		t.Error("second check not served from the verdict cache")
	}
	if second.Malicious != first.Malicious || second.Score != first.Score {
		t.Errorf("cached verdict diverged: first=%+v second=%+v", first, second)
	}
	if got := reg.CounterValue("frappe_verdict_cache_total", "hit"); got != hitsBefore+1 {
		t.Errorf("verdict cache hits = %d, want %d", got, hitsBefore+1)
	}
}
