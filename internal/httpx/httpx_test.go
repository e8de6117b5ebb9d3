package httpx

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"frappe/internal/telemetry"
	"frappe/internal/tracing"
)

// fakeClock is a manually-advanced clock for breaker/cache tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// sleepRecorder captures backoff sleeps instead of sleeping.
type sleepRecorder struct {
	mu     sync.Mutex
	sleeps []time.Duration
}

func (s *sleepRecorder) Sleep(d time.Duration) {
	s.mu.Lock()
	s.sleeps = append(s.sleeps, d)
	s.mu.Unlock()
}

func (s *sleepRecorder) Sleeps() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Duration(nil), s.sleeps...)
}

func TestZeroConfigDefaults(t *testing.T) {
	c := New(Config{})
	if c.cfg.Timeout != DefaultTimeout {
		t.Errorf("Timeout = %v, want %v", c.cfg.Timeout, DefaultTimeout)
	}
	if c.cfg.Transport != pooledTransport {
		t.Errorf("Transport = %v, want the shared pooled transport", c.cfg.Transport)
	}
	if c.cfg.MaxAttempts != DefaultMaxAttempts {
		t.Errorf("MaxAttempts = %d, want %d", c.cfg.MaxAttempts, DefaultMaxAttempts)
	}
	if c.cfg.BreakerThreshold != DefaultBreakerThreshold {
		t.Errorf("BreakerThreshold = %d, want %d", c.cfg.BreakerThreshold, DefaultBreakerThreshold)
	}
}

// TestHangingServerTimesOut is the regression test for the old
// http.DefaultClient fallback: a server that never answers must not
// stall the caller beyond the configured timeout.
func TestHangingServerTimesOut(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // hang until the client gives up
	}))
	defer srv.Close()

	c := New(Config{
		Service:     "hang",
		Timeout:     150 * time.Millisecond,
		MaxAttempts: 1,
		Telemetry:   telemetry.New(),
	})
	start := time.Now()
	_, err := c.Get(context.Background(), srv.URL)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Get against a hanging server returned nil error")
	}
	if elapsed > 2*time.Second {
		t.Errorf("Get took %v; timeout did not bound the hang", elapsed)
	}
}

// TestAttemptTimeoutUnderCallerDeadline: the per-attempt timeout still
// fires when the caller's own deadline is later (the front door's route
// timeout over its member timeout), a caller's earlier deadline bounds the
// attempt by itself, and the final error names the method and URL.
func TestAttemptTimeoutUnderCallerDeadline(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer srv.Close()
	for _, tc := range []struct {
		name             string
		timeout, caller  time.Duration
		wantUnder        time.Duration
		wantCallerExpiry bool
	}{
		{name: "later caller deadline", timeout: 100 * time.Millisecond, caller: time.Minute, wantUnder: 5 * time.Second},
		{name: "earlier caller deadline", timeout: time.Minute, caller: 100 * time.Millisecond, wantUnder: 5 * time.Second, wantCallerExpiry: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(Config{Service: "deadline", Timeout: tc.timeout, MaxAttempts: 1, Telemetry: telemetry.New()})
			ctx, cancel := context.WithTimeout(context.Background(), tc.caller)
			defer cancel()
			start := time.Now()
			_, err := c.Get(ctx, srv.URL+"/slow")
			if elapsed := time.Since(start); elapsed > tc.wantUnder {
				t.Fatalf("Get took %v, want under %v", elapsed, tc.wantUnder)
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want a deadline error", err)
			}
			if want := "GET " + srv.URL + "/slow"; !strings.Contains(err.Error(), want) {
				t.Errorf("err = %q, want it to name %s", err, want)
			}
			if (ctx.Err() != nil) != tc.wantCallerExpiry {
				t.Errorf("caller context err = %v after the attempt", ctx.Err())
			}
		})
	}
}

// TestBodyReadBounded: a body is cut at MaxBodyBytes whether or not the
// response declares its length, and a declared length under the limit is
// read whole.
func TestBodyReadBounded(t *testing.T) {
	const body = "0123456789abcdefghij"
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/chunked" {
			w.(http.Flusher).Flush() // no Content-Length: the body is chunked
		} else {
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		}
		w.Write([]byte(body))
	}))
	defer srv.Close()
	for _, tc := range []struct {
		path  string
		limit int64
		want  string
	}{
		{"/sized", 8, body[:8]},
		{"/chunked", 8, body[:8]},
		{"/sized", 64, body},
		{"/chunked", 64, body},
	} {
		c := New(Config{Service: "body", MaxBodyBytes: tc.limit, Telemetry: telemetry.New()})
		resp, err := c.Get(context.Background(), srv.URL+tc.path)
		if err != nil {
			t.Fatalf("%s, limit %d: %v", tc.path, tc.limit, err)
		}
		if string(resp.Body) != tc.want {
			t.Errorf("%s, limit %d: body %q, want %q", tc.path, tc.limit, resp.Body, tc.want)
		}
	}
}

func TestBackoffScheduleWithFakeSleeper(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "boom", http.StatusBadGateway)
	}))
	defer srv.Close()

	rec := &sleepRecorder{}
	reg := telemetry.New()
	c := New(Config{
		Service:     "backoff",
		MaxAttempts: 4,
		BackoffBase: 100 * time.Millisecond,
		BackoffMax:  350 * time.Millisecond,
		Sleep:       rec.Sleep,
		JitterSeed:  42,
		Telemetry:   reg,
	})
	resp, err := c.Get(context.Background(), srv.URL)
	if err != nil {
		t.Fatalf("Get: %v (an exhausted 5xx returns the response, not an error)", err)
	}
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("status = %d, want 502", resp.StatusCode)
	}
	if got := hits.Load(); got != 4 {
		t.Errorf("upstream hits = %d, want 4", got)
	}

	sleeps := rec.Sleeps()
	if len(sleeps) != 3 {
		t.Fatalf("sleeps = %v, want 3 entries", sleeps)
	}
	// Schedule: min(max, base·2^(n-1)) with uniform jitter in [d/2, d].
	for i, d := range []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 350 * time.Millisecond} {
		if sleeps[i] < d/2 || sleeps[i] > d {
			t.Errorf("sleep %d = %v, want in [%v, %v]", i, sleeps[i], d/2, d)
		}
	}

	if got := reg.CounterValue("frappe_httpx_attempts_total", "backoff"); got != 4 {
		t.Errorf("attempts counter = %d, want 4", got)
	}
	if got := reg.CounterValue("frappe_httpx_retries_total", "backoff"); got != 3 {
		t.Errorf("retries counter = %d, want 3", got)
	}
	if got := reg.CounterValue("frappe_httpx_requests_total", "backoff", "exhausted"); got != 1 {
		t.Errorf("exhausted counter = %d, want 1", got)
	}
}

// TestTerminalStatusesShortCircuit: 2xx and 4xx answers carry service
// semantics (deleted apps arrive as 404 or a literal `false` body) and
// must never be retried.
func TestTerminalStatusesShortCircuit(t *testing.T) {
	for _, status := range []int{http.StatusOK, http.StatusNotFound, http.StatusBadRequest} {
		t.Run(strconv.Itoa(status), func(t *testing.T) {
			var hits atomic.Int32
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				hits.Add(1)
				w.WriteHeader(status)
				fmt.Fprint(w, "false")
			}))
			defer srv.Close()
			c := New(Config{
				Service:     "terminal",
				MaxAttempts: 5,
				Sleep:       func(time.Duration) { t.Error("slept on a terminal response") },
				Telemetry:   telemetry.New(),
			})
			resp, err := c.Get(context.Background(), srv.URL)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != status {
				t.Errorf("status = %d, want %d", resp.StatusCode, status)
			}
			if string(resp.Body) != "false" {
				t.Errorf("body = %q", resp.Body)
			}
			if got := hits.Load(); got != 1 {
				t.Errorf("upstream hits = %d, want exactly 1", got)
			}
		})
	}
}

func TestNetworkErrorRetriesThenFails(t *testing.T) {
	// Reserve a port and close it so connections are refused immediately.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + ln.Addr().String()
	ln.Close()

	reg := telemetry.New()
	c := New(Config{
		Service:     "dead",
		MaxAttempts: 3,
		Sleep:       func(time.Duration) {},
		Telemetry:   reg,
	})
	_, err = c.Get(context.Background(), dead)
	if err == nil {
		t.Fatal("Get against a dead endpoint returned nil error")
	}
	if got := reg.CounterValue("frappe_httpx_attempts_total", "dead"); got != 3 {
		t.Errorf("attempts = %d, want 3", got)
	}
	if got := reg.CounterValue("frappe_httpx_requests_total", "dead", "error"); got != 1 {
		t.Errorf("error outcome = %d, want 1", got)
	}
}

func TestBreakerOpenHalfOpenClose(t *testing.T) {
	healthy := atomic.Bool{}
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if healthy.Load() {
			fmt.Fprint(w, "ok")
			return
		}
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()
	host := srv.Listener.Addr().String()

	clock := newFakeClock()
	reg := telemetry.New()
	c := New(Config{
		Service:          "breaker",
		MaxAttempts:      1, // one network attempt per call, to step states precisely
		BreakerThreshold: 2,
		BreakerCooldown:  10 * time.Second,
		Now:              clock.Now,
		Sleep:            func(time.Duration) {},
		Telemetry:        reg,
	})
	get := func() (*Response, error) { return c.Get(context.Background(), srv.URL) }

	// Two consecutive failures open the breaker.
	for i := 0; i < 2; i++ {
		if resp, err := get(); err != nil || resp.StatusCode != 500 {
			t.Fatalf("call %d: resp=%v err=%v", i, resp, err)
		}
	}
	if got := reg.GaugeValue("frappe_httpx_breaker_state", "breaker", host); got != stateOpen {
		t.Fatalf("breaker state = %v, want open (%d)", got, stateOpen)
	}

	// Open: rejected without touching the network.
	before := hits.Load()
	if _, err := get(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open breaker err = %v, want ErrCircuitOpen", err)
	}
	if hits.Load() != before {
		t.Error("open breaker still hit the upstream")
	}

	// After the cooldown a half-open probe goes through; a success closes.
	clock.Advance(11 * time.Second)
	healthy.Store(true)
	if resp, err := get(); err != nil || resp.StatusCode != 200 {
		t.Fatalf("half-open probe: resp=%v err=%v", resp, err)
	}
	if got := reg.GaugeValue("frappe_httpx_breaker_state", "breaker", host); got != stateClosed {
		t.Errorf("breaker state after good probe = %v, want closed", got)
	}

	// Re-open, and a failed probe goes straight back to open.
	healthy.Store(false)
	for i := 0; i < 2; i++ {
		if _, err := get(); err != nil {
			t.Fatal(err)
		}
	}
	clock.Advance(11 * time.Second)
	if resp, err := get(); err != nil || resp.StatusCode != 500 {
		t.Fatalf("failing probe: resp=%v err=%v", resp, err)
	}
	if _, err := get(); !errors.Is(err, ErrCircuitOpen) {
		t.Errorf("after failed probe err = %v, want ErrCircuitOpen", err)
	}
}

func TestSingleflightCollapsesConcurrentGets(t *testing.T) {
	var hits atomic.Int32
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		once.Do(func() { close(entered) })
		<-release
		fmt.Fprint(w, "payload")
	}))
	defer srv.Close()

	reg := telemetry.New()
	c := New(Config{Service: "sf", MaxAttempts: 1, Telemetry: reg})

	const followers = 7
	results := make(chan *Response, followers+1)
	errs := make(chan error, followers+1)
	run := func() {
		resp, err := c.Get(context.Background(), srv.URL)
		results <- resp
		errs <- err
	}
	go run() // leader
	<-entered
	for i := 0; i < followers; i++ {
		go run()
	}
	// Wait until every follower is parked on the leader's flight, then
	// let the upstream answer — a deterministic collapse.
	for c.sf.waiting(srv.URL) < followers {
		time.Sleep(time.Millisecond)
	}
	close(release)

	for i := 0; i < followers+1; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
		if resp := <-results; string(resp.Body) != "payload" {
			t.Errorf("body = %q", resp.Body)
		}
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("upstream hits = %d, want 1", got)
	}
	if got := reg.CounterValue("frappe_httpx_singleflight_shared_total", "sf"); got != followers {
		t.Errorf("shared counter = %d, want %d", got, followers)
	}
}

// TestSingleflightCanceledLeaderNotInherited: a leader whose own context
// ends mid-request gets its own cancellation, naming the one attempt it
// made; a follower whose context is still live does not inherit that
// failure but fetches for itself, and a follower whose own context ends
// gets its own cancellation, not counted as a shared response.
func TestSingleflightCanceledLeaderNotInherited(t *testing.T) {
	var hits atomic.Int32
	entered := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			close(entered)
			<-r.Context().Done() // the leader's request, until it is canceled
			return
		}
		fmt.Fprint(w, "payload")
	}))
	defer srv.Close()

	reg := telemetry.New()
	c := New(Config{Service: "sf", MaxAttempts: 3, Sleep: func(time.Duration) {}, Telemetry: reg})
	lctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leaderErr := make(chan error, 1)
	go func() {
		_, err := c.Get(lctx, srv.URL)
		leaderErr <- err
	}()
	<-entered
	type result struct {
		resp *Response
		err  error
	}
	follower := make(chan result, 1)
	go func() {
		resp, err := c.Get(context.Background(), srv.URL)
		follower <- result{resp, err}
	}()
	fctx, fcancel := context.WithCancel(context.Background())
	quitter := make(chan error, 1)
	go func() {
		_, err := c.Get(fctx, srv.URL)
		quitter <- err
	}()
	for c.sf.waiting(srv.URL) < 2 {
		time.Sleep(time.Millisecond)
	}
	fcancel()
	if err := <-quitter; !errors.Is(err, context.Canceled) {
		t.Errorf("follower that gave up: err = %v, want context.Canceled", err)
	}
	cancel()

	err := <-leaderErr
	if !errors.Is(err, context.Canceled) {
		t.Errorf("leader err = %v, want context.Canceled", err)
	}
	if err != nil && !strings.Contains(err.Error(), "giving up after attempt 1:") {
		t.Errorf("leader err = %q, want it to name the one attempt made", err)
	}
	got := <-follower
	if got.err != nil {
		t.Fatalf("live follower inherited the leader's cancellation: %v", got.err)
	}
	if string(got.resp.Body) != "payload" || got.resp.Shared {
		t.Errorf("follower response = %q shared=%v, want its own %q", got.resp.Body, got.resp.Shared, "payload")
	}
	if n := hits.Load(); n != 2 {
		t.Errorf("upstream hits = %d, want 2 (the canceled leader's and the follower's own)", n)
	}
	if n := reg.CounterValue("frappe_httpx_singleflight_shared_total", "sf"); n != 0 {
		t.Errorf("shared counter = %d, want 0: no response was shared", n)
	}
}

// TestDefaultTransportReusesConnections: concurrent streams through one
// client to one host reuse pooled connections instead of re-dialing; the
// stock transport keeps only 2 idle connections per host.
func TestDefaultTransportReusesConnections(t *testing.T) {
	var opened atomic.Int32
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	}))
	srv.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			opened.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	c := New(Config{Service: "pool", Telemetry: telemetry.New()})
	const streams, gets = 8, 200
	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < gets; i++ {
				if _, err := c.Get(context.Background(), fmt.Sprintf("%s/?s=%d&i=%d", srv.URL, s, i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	if n := opened.Load(); n > 2*streams {
		t.Errorf("%d streams x %d GETs opened %d connections, want at most %d", streams, gets, n, 2*streams)
	}
}

// TestConcurrentWorkout drives every layer at once under -race: mixed
// URLs, singleflight on, a flaky upstream to exercise retries and the
// breaker.
func TestConcurrentWorkout(t *testing.T) {
	var n atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)%7 == 0 {
			http.Error(w, "flaky", http.StatusBadGateway)
			return
		}
		fmt.Fprint(w, r.URL.Path)
	}))
	defer srv.Close()

	c := New(Config{
		Service:     "workout",
		MaxAttempts: 3,
		BackoffBase: time.Microsecond,
		BackoffMax:  10 * time.Microsecond,
		Telemetry:   telemetry.New(),
	})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				u := srv.URL + "/p" + strconv.Itoa(i%5)
				resp, err := c.Get(context.Background(), u)
				if err != nil {
					t.Errorf("get %s: %v", u, err)
					return
				}
				if resp.StatusCode == http.StatusOK {
					parsed, _ := url.Parse(u)
					if string(resp.Body) != parsed.Path {
						t.Errorf("body = %q, want %q", resp.Body, parsed.Path)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestPostRetriesAndReturnsBody(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			http.Error(w, "transient", http.StatusServiceUnavailable)
			return
		}
		if ct := r.Header.Get("Content-Type"); ct != "application/x-www-form-urlencoded" {
			t.Errorf("content type = %q", ct)
		}
		fmt.Fprint(w, "posted")
	}))
	defer srv.Close()

	c := New(Config{
		Service:     "post",
		MaxAttempts: 3,
		Sleep:       func(time.Duration) {},
		Telemetry:   telemetry.New(),
	})
	resp, err := c.Post(context.Background(), srv.URL, "application/x-www-form-urlencoded", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || string(resp.Body) != "posted" {
		t.Errorf("resp = %d %q", resp.StatusCode, resp.Body)
	}
	if got := hits.Load(); got != 2 {
		t.Errorf("hits = %d, want 2 (one retry)", got)
	}
}

// findSpans returns the nodes named name anywhere in the trace tree.
func findSpans(nodes []*tracing.SpanNode, name string) []*tracing.SpanNode {
	var out []*tracing.SpanNode
	for _, n := range nodes {
		if n.Name == name {
			out = append(out, n)
		}
		out = append(out, findSpans(n.Children, name)...)
	}
	return out
}

// TestTracingRecordsRetriesAndBackoff: two 502s then a 200, requested
// under a trace, must yield one httpx.request span holding three attempt
// spans (the first two marked retryable-failure) and two backoff spans.
func TestTracingRecordsRetriesAndBackoff(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "boom", http.StatusBadGateway)
			return
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()

	tr := tracing.New(tracing.Options{})
	rec := &sleepRecorder{}
	c := New(Config{
		Service:   "traced",
		Telemetry: telemetry.New(),
		Tracer:    tr,
		Sleep:     rec.Sleep,
	})
	ctx, root := tr.Start(context.Background(), "test.root")
	resp, err := c.Get(ctx, srv.URL)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("Get = %v, %v", resp, err)
	}
	root.End()

	tj, ok := tr.Store().Trace(root.TraceID().String())
	if !ok {
		t.Fatal("trace not in store")
	}
	reqs := findSpans(tj.Roots, "httpx.request")
	if len(reqs) != 1 {
		t.Fatalf("httpx.request spans = %d, want 1", len(reqs))
	}
	attempts := findSpans(reqs, "httpx.attempt")
	if len(attempts) != 3 {
		t.Fatalf("attempt spans = %d, want 3", len(attempts))
	}
	for i, a := range attempts[:2] {
		if a.Error == "" {
			t.Errorf("failed attempt %d has no error status", i+1)
		}
	}
	if attempts[2].Error != "" {
		t.Errorf("final attempt marked failed: %q", attempts[2].Error)
	}
	backoffs := findSpans(reqs, "httpx.backoff")
	if len(backoffs) != 2 {
		t.Fatalf("backoff spans = %d, want 2", len(backoffs))
	}
	if len(rec.Sleeps()) != 2 {
		t.Fatalf("sleeps = %d, want 2", len(rec.Sleeps()))
	}
}

// TestTracingRecordsBreakerShortCircuit: a request rejected by an open
// breaker leaves an httpx.breaker_open span, not an attempt span.
func TestTracingRecordsBreakerShortCircuit(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()

	tr := tracing.New(tracing.Options{})
	clock := newFakeClock()
	c := New(Config{
		Service:          "breaking",
		MaxAttempts:      1,
		BreakerThreshold: 1,
		Telemetry:        telemetry.New(),
		Tracer:           tr,
		Now:              clock.Now,
		Sleep:            func(time.Duration) {},
	})
	// Trip the breaker (untraced; just burns the failure budget).
	c.Get(context.Background(), srv.URL)

	ctx, root := tr.Start(context.Background(), "test.root")
	_, err := c.Get(ctx, srv.URL)
	root.End()
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	tj, _ := tr.Store().Trace(root.TraceID().String())
	open := findSpans(tj.Roots, "httpx.breaker_open")
	if len(open) != 1 {
		t.Fatalf("breaker_open spans = %d, want 1", len(open))
	}
	if open[0].Error == "" {
		t.Error("breaker_open span has no error status")
	}
	if got := findSpans(tj.Roots, "httpx.attempt"); len(got) != 0 {
		t.Errorf("attempt spans under open breaker = %d, want 0", len(got))
	}
}

// TestNoTraceNoSpans: without a trace in the context, httpx must create
// no spans at all (bulk dataset crawls stay span-free).
func TestNoTraceNoSpans(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(tracing.TraceparentHeader) != "" {
			t.Error("untraced request carried a traceparent header")
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	tr := tracing.New(tracing.Options{})
	c := New(Config{Service: "plain", Telemetry: telemetry.New(), Tracer: tr})
	if _, err := c.Get(context.Background(), srv.URL); err != nil {
		t.Fatal(err)
	}
	if got := tr.Store().Len(); got != 0 {
		t.Errorf("store traces = %d, want 0", got)
	}
}
