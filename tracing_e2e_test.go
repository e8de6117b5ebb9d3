package frappe

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"frappe/internal/telemetry"
	"frappe/internal/tracing"
)

// End-to-end request tracing: one /check against a fault-injected stack
// must yield one trace whose span tree crosses every layer — HTTP
// middleware, verdict cache, singleflight compute, crawl, per-attempt
// httpx retries, SVM inference — with the same trace ID in the Assessment
// JSON, the X-Trace-Id header, and the service's log lines. Faults are
// injected at rate 1.0, so retry and breaker behaviour is deterministic
// without touching the fault RNG.

// walkTrace flattens a trace's span tree (depth first).
func walkTrace(tr tracing.TraceJSON) []*tracing.SpanNode {
	var out []*tracing.SpanNode
	var walk func(n *tracing.SpanNode)
	walk = func(n *tracing.SpanNode) {
		out = append(out, n)
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range tr.Roots {
		walk(r)
	}
	return out
}

func spansNamed(spans []*tracing.SpanNode, name string) []*tracing.SpanNode {
	var out []*tracing.SpanNode
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func attrOf(s *tracing.SpanNode, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// checkOnce GETs /check for one app and returns the response, the decoded
// assessment, and the stitched trace from the default store.
func checkOnce(t *testing.T, base, appID string) (*http.Response, Assessment, tracing.TraceJSON) {
	t.Helper()
	resp, err := http.Get(base + "/check?app=" + appID)
	if err != nil {
		t.Fatal(err)
	}
	var a Assessment
	if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
		t.Fatalf("decoding assessment: %v", err)
	}
	resp.Body.Close()
	if a.TraceID == "" {
		t.Fatal("assessment carries no trace_id")
	}
	if hdr := resp.Header.Get(telemetry.TraceIDHeader); hdr != a.TraceID {
		t.Fatalf("X-Trace-Id %q != assessment trace_id %q", hdr, a.TraceID)
	}
	tr, ok := tracing.Default().Store().Trace(a.TraceID)
	if !ok {
		t.Fatalf("trace %s not in the store", a.TraceID)
	}
	return resp, a, tr
}

// TestTraceFollowsCheckAcrossStack: with every WOT request 502ing, a cold
// /check produces one span tree covering handler → cache miss →
// singleflight compute → crawl (4 WOT attempts, 3 backoff waits) → SVM
// inference; a second /check for the same app is a cache hit whose trace
// still carries the current request's trace ID.
func TestTraceFollowsCheckAcrossStack(t *testing.T) {
	w, _ := sharedWorld(t)
	clf := trainedClassifier(t)
	ids := liveApps(t, 2)
	if len(ids) < 2 {
		t.Skip("world has too few live apps")
	}

	st, err := StartServicesWithFaults(w, &FaultSpec{
		Seed: 7,
		PerService: map[string]ServiceFaults{
			// Every WOT call fails: 1 first try + 3 retries, then the
			// score degrades to unknown — the verdict itself still lands.
			"wot": {ErrorRate: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	wd, err := NewWatchdogWith(clf, WatchdogConfig{
		GraphURL:         st.GraphURL,
		WOTURL:           st.WOTURL,
		Retries:          3,
		BreakerThreshold: 4,
		VerdictTTL:       time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(WatchdogHandler(wd, 10*time.Second))
	defer srv.Close()

	resp, _, tr := checkOnce(t, srv.URL, ids[0])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/check = %d, want 200 (WOT failure degrades to unknown score)", resp.StatusCode)
	}

	spans := walkTrace(tr)
	for _, name := range []string{
		"http.server", "watchdog.assess", "verdict.cache", "verdict.compute",
		"crawl.app", "crawl.summary", "crawl.install", "crawl.wot",
		"httpx.request", "httpx.attempt", "svm.classify",
	} {
		if len(spansNamed(spans, name)) == 0 {
			t.Errorf("trace has no %q span", name)
		}
	}
	if got := attrOf(spansNamed(spans, "verdict.cache")[0], "result"); got != "miss" {
		t.Errorf("cold verdict.cache result = %q, want miss", got)
	}
	// The WOT transport's retry ladder, span by span: one request wrapper
	// with 4 recorded attempts, each attempt errored, 3 backoff waits.
	var wotReq *tracing.SpanNode
	for _, s := range spansNamed(spans, "httpx.request") {
		if attrOf(s, "service") == "wot" {
			wotReq = s
		}
	}
	if wotReq == nil {
		t.Fatal("no httpx.request span for the wot service")
	}
	if got := attrOf(wotReq, "attempts"); got != "4" {
		t.Errorf("wot request attempts attr = %q, want 4", got)
	}
	wotSpans := walkTrace(tracing.TraceJSON{Roots: []*tracing.SpanNode{wotReq}})
	attempts := spansNamed(wotSpans, "httpx.attempt")
	if len(attempts) != 4 {
		t.Fatalf("wot attempt spans = %d, want 4", len(attempts))
	}
	for i, at := range attempts {
		if at.Error == "" {
			t.Errorf("wot attempt %d recorded no error", i)
		}
	}
	if got := len(spansNamed(wotSpans, "httpx.backoff")); got != 3 {
		t.Errorf("wot backoff spans = %d, want 3", got)
	}

	// Same app again: served from cache, stamped with the NEW request's
	// trace ID, and its much shorter trace shows the hit.
	resp2, a2, tr2 := checkOnce(t, srv.URL, ids[0])
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cached /check = %d, want 200", resp2.StatusCode)
	}
	if !a2.Cached {
		t.Error("second /check not served from cache")
	}
	if a2.TraceID == tr.TraceID {
		t.Error("cached verdict reused the computing request's trace ID")
	}
	cacheSpans := spansNamed(walkTrace(tr2), "verdict.cache")
	if len(cacheSpans) == 0 || attrOf(cacheSpans[0], "result") != "hit" {
		t.Errorf("cached trace verdict.cache spans = %+v, want one with result=hit", cacheSpans)
	}

	// A different app within the breaker cooldown: the WOT circuit opened
	// after 4 consecutive failures, so its trace shows the short-circuit
	// instead of attempt spans.
	resp3, _, tr3 := checkOnce(t, srv.URL, ids[1])
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("post-breaker /check = %d, want 200", resp3.StatusCode)
	}
	spans3 := walkTrace(tr3)
	open := spansNamed(spans3, "httpx.breaker_open")
	if len(open) == 0 {
		t.Fatal("post-breaker trace has no httpx.breaker_open span")
	}
	if open[0].Error == "" {
		t.Error("breaker_open span carries no error")
	}
	for _, s := range spansNamed(spans3, "httpx.request") {
		if attrOf(s, "service") == "wot" {
			if got := len(spansNamed(walkTrace(tracing.TraceJSON{Roots: []*tracing.SpanNode{s}}), "httpx.attempt")); got != 0 {
				t.Errorf("short-circuited wot request made %d attempts, want 0", got)
			}
		}
	}
}

// TestCheckNon200LogsTraceID: a failed /check (502 here: every Graph API
// call errors) logs through the trace-aware slog handler, so the line
// carries the same trace_id the client received — the operator's pivot
// from a log line to its trace. A deleted app's 404 is a verdict, not a
// failure, and logs no such line.
func TestCheckNon200LogsTraceID(t *testing.T) {
	w, _ := sharedWorld(t)
	clf := trainedClassifier(t)
	ids := liveApps(t, 1)
	if len(ids) == 0 {
		t.Skip("world has no live apps")
	}
	var deleted string
	for _, id := range append(append([]string{}, w.MaliciousIDs...), w.BenignIDs...) {
		if _, err := w.Platform.Lookup(id); err != nil {
			deleted = id
			break
		}
	}
	if deleted == "" {
		t.Skip("world has no deleted apps")
	}

	var buf bytes.Buffer
	prev := slog.Default()
	slog.SetDefault(telemetry.NewLogger(telemetry.LogConfig{Component: "watchdogd-test", Output: &buf}))
	defer slog.SetDefault(prev)

	// The deletion verdict: 404, and no warning.
	st, err := StartServices(w)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	wd, err := NewWatchdog(clf, st.GraphURL, st.WOTURL)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(WatchdogHandler(wd, 10*time.Second))
	defer srv.Close()
	resp, _, _ := checkOnce(t, srv.URL, deleted)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/check for deleted app = %d, want 404", resp.StatusCode)
	}
	if logged := buf.String(); strings.Contains(logged, "non-OK assessment") {
		t.Fatalf("deletion verdict logged a warning: %q", logged)
	}

	// The failed check: 502, warned with its trace_id.
	faulty, err := StartServicesWithFaults(w, &FaultSpec{
		Seed:       3,
		PerService: map[string]ServiceFaults{"graph": {ErrorRate: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer faulty.Close()
	faultyWD, err := NewWatchdogWith(clf, WatchdogConfig{
		GraphURL: faulty.GraphURL,
		WOTURL:   faulty.WOTURL,
		Retries:  -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	faultySrv := httptest.NewServer(WatchdogHandler(faultyWD, 10*time.Second))
	defer faultySrv.Close()
	resp, a, _ := checkOnce(t, faultySrv.URL, ids[0])
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("/check against a failing Graph API = %d, want 502", resp.StatusCode)
	}
	logged := buf.String()
	if !strings.Contains(logged, "non-OK assessment") {
		t.Fatalf("failed /check logged nothing: %q", logged)
	}
	if !strings.Contains(logged, "trace_id="+a.TraceID) {
		t.Errorf("log line lacks trace_id=%s: %q", a.TraceID, logged)
	}
}
