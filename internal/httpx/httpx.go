// Package httpx is the repo's shared resilient HTTP transport: one
// configurable client core under every service client (graphapi, wot,
// bitly, socialbakers) and the crawler.
//
// The paper's deployment target is a watchdog that evaluates an app "at
// the time when a user is considering installing it" (§5.1) against
// flaky external services — the original crawl reached install
// permissions for only ~37% of benign apps. A serving system built on
// that reality needs its fault handling in one place, not copy-pasted
// per client. httpx provides, per request:
//
//   - a hard per-attempt timeout (dial through body read) so one hung
//     upstream can never stall a crawl;
//   - jittered exponential backoff with terminal-error classification:
//     transport errors and 5xx/429 responses retry, everything else —
//     including the Graph API's `false` (deleted) and 404 — returns
//     immediately and is never retried;
//   - a per-host circuit breaker (closed → open after N consecutive
//     failures → half-open probe after a cooldown);
//   - GET request deduplication (singleflight): concurrent identical
//     fetches share one upstream round trip.
//
// Everything is instrumented on an internal/telemetry registry (see
// telemetry.go for the family list) and stdlib-only.
package httpx

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"time"

	"frappe/internal/telemetry"
	"frappe/internal/tracing"
)

// ErrCircuitOpen is returned (wrapped) when the per-host circuit breaker
// is open and the request was rejected without touching the network.
// Callers distinguish it from ordinary upstream failures with errors.Is.
var ErrCircuitOpen = errors.New("httpx: circuit breaker open")

// Defaults. Every knob in Config falls back to one of these when zero.
const (
	// DefaultTimeout bounds one attempt end to end: connection, request,
	// and reading the full response body. This is the regression fix for
	// the old per-package http.DefaultClient fallback, which had no
	// timeout at all.
	DefaultTimeout = 10 * time.Second
	// DefaultMaxAttempts is the total attempt budget (1 first try + 2
	// retries).
	DefaultMaxAttempts = 3
	// DefaultBackoffBase is the pre-jitter delay before the first retry.
	DefaultBackoffBase = 50 * time.Millisecond
	// DefaultBackoffMax caps the exponential schedule.
	DefaultBackoffMax = 2 * time.Second
	// DefaultBreakerThreshold is how many consecutive failures open a
	// host's breaker.
	DefaultBreakerThreshold = 5
	// DefaultBreakerCooldown is how long an open breaker rejects before
	// allowing a half-open probe.
	DefaultBreakerCooldown = 10 * time.Second
	// DefaultMaxBodyBytes bounds how much of a response body is read.
	DefaultMaxBodyBytes = 1 << 20
)

// Config parameterises a Client. The zero value is fully usable: every
// field falls back to the package default above.
type Config struct {
	// Service labels this client's telemetry series ("graph", "wot", ...).
	// Empty means "http".
	Service string
	// Timeout bounds one attempt (dial through body read). 0 means
	// DefaultTimeout; negative disables the timeout (tests only).
	Timeout time.Duration
	// MaxAttempts is the total attempt budget per request (first try
	// included). 0 means DefaultMaxAttempts; negative means 1.
	MaxAttempts int
	// BackoffBase and BackoffMax shape the jittered exponential retry
	// schedule: before retry n the client sleeps a uniformly jittered
	// value in [d/2, d] with d = min(BackoffMax, BackoffBase·2^(n-1)).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BreakerThreshold is the consecutive-failure count that opens a
	// host's breaker. 0 means DefaultBreakerThreshold; negative disables
	// the breaker entirely.
	BreakerThreshold int
	// BreakerCooldown is the open-state duration before a half-open
	// probe. 0 means DefaultBreakerCooldown.
	BreakerCooldown time.Duration
	// DisableSingleflight turns off GET request deduplication.
	DisableSingleflight bool
	// MaxBodyBytes bounds response body reads. 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// Transport is the underlying RoundTripper (default: the package's
	// shared pooledTransport). Tests inject fakes here.
	Transport http.RoundTripper
	// Telemetry is the registry the client records into; nil means the
	// process default.
	Telemetry *telemetry.Registry
	// Tracer records request/attempt/backoff spans when the caller's
	// context already carries a trace; nil means the process default.
	// httpx never starts a trace of its own — untraced bulk work (dataset
	// builds, experiment crawls) stays span-free.
	Tracer *tracing.Tracer

	// Now and Sleep are test seams for the breaker clock and the backoff
	// sleeper. Nil means real time.
	Now   func() time.Time
	Sleep func(time.Duration)
	// JitterSeed seeds the deterministic backoff jitter RNG (0 means 1).
	JitterSeed int64
}

// Response is a fully-read HTTP response. The body is already drained
// and the connection released, so retries and singleflight sharing are
// safe; callers just decode Body.
type Response struct {
	StatusCode int
	Status     string
	// Header is the transport's map, not a copy: a singleflight flight
	// hands it to every caller, so callers only read it.
	Header http.Header
	Body   []byte

	// Attempts is how many network attempts this response cost (0 when
	// shared from another caller's singleflight flight).
	Attempts int
	// Shared marks a response obtained from another caller's in-flight
	// request via singleflight.
	Shared bool
}

// Client is a resilient HTTP client. Construct with New; the zero value
// is not usable. All methods are safe for concurrent use.
type Client struct {
	cfg Config
	ins *instruments

	jmu    sync.Mutex
	jitter *rand.Rand

	bmu      sync.Mutex
	breakers map[string]*breaker

	sf *flightGroup
}

// pooledTransport is every client's default RoundTripper: one clone of
// http.DefaultTransport keeping up to 64 idle connections per host. The
// stock transport keeps 2, so a client with more concurrent requests to
// one host than that closes and re-dials connections instead of reusing
// them.
var pooledTransport = func() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = 64
	return t
}()

// New returns a Client for cfg, normalising zero fields to the package
// defaults.
func New(cfg Config) *Client {
	if cfg.Service == "" {
		cfg.Service = "http"
	}
	if cfg.Transport == nil {
		cfg.Transport = pooledTransport
	}
	switch {
	case cfg.Timeout == 0:
		cfg.Timeout = DefaultTimeout
	case cfg.Timeout < 0:
		cfg.Timeout = 0 // no per-attempt timeout
	}
	switch {
	case cfg.MaxAttempts == 0:
		cfg.MaxAttempts = DefaultMaxAttempts
	case cfg.MaxAttempts < 0:
		cfg.MaxAttempts = 1
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = DefaultBackoffBase
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = DefaultBackoffMax
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = DefaultBreakerThreshold
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = DefaultBreakerCooldown
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Tracer == nil {
		cfg.Tracer = tracing.Default()
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	seed := cfg.JitterSeed
	if seed == 0 {
		seed = 1
	}
	return &Client{
		cfg:      cfg,
		ins:      newInstruments(cfg.Telemetry, cfg.Service),
		jitter:   rand.New(rand.NewSource(seed)),
		breakers: make(map[string]*breaker),
		sf:       newFlightGroup(),
	}
}

var (
	defaultOnce   sync.Once
	defaultClient *Client
)

// Default returns the shared process-wide client the service clients
// fall back to when not handed an explicit one: default timeout, retry
// budget, and per-host breakers.
func Default() *Client {
	defaultOnce.Do(func() { defaultClient = New(Config{Service: "default"}) })
	return defaultClient
}

// Get issues a GET, with retries, breaker, and singleflight.
func (c *Client) Get(ctx context.Context, rawURL string) (*Response, error) {
	return c.do(ctx, http.MethodGet, rawURL, "", nil)
}

// Post issues a POST. POSTs bypass singleflight but share the
// retry/breaker machinery; every write surface in this repo is idempotent
// per URL (installs reissue tokens, posts are keyed), so the retry is
// safe.
func (c *Client) Post(ctx context.Context, rawURL, contentType string, body []byte) (*Response, error) {
	return c.do(ctx, http.MethodPost, rawURL, contentType, body)
}

// do wraps the singleflight/retry pipeline in one request span when the
// caller's context carries a trace: the span records the terminal outcome
// (status, shared flight, error) and every retry attempt, backoff wait,
// and breaker decision nests under it.
func (c *Client) do(ctx context.Context, method, rawURL, contentType string, body []byte) (*Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, span := c.cfg.Tracer.StartChild(ctx, "httpx.request")
	if span == nil {
		return c.doPipeline(ctx, method, rawURL, contentType, body)
	}
	span.SetAttr(
		tracing.String("service", c.cfg.Service),
		tracing.String("method", method),
		tracing.String("url", rawURL),
	)
	resp, err := c.doPipeline(ctx, method, rawURL, contentType, body)
	switch {
	case err != nil:
		span.SetError(err)
	default:
		span.SetAttr(tracing.Int("status", int64(resp.StatusCode)))
		if resp.Shared {
			span.SetAttr(tracing.Bool("shared", true))
		}
		if resp.Attempts > 1 {
			span.SetAttr(tracing.Int("attempts", int64(resp.Attempts)))
		}
	}
	span.End()
	return resp, err
}

func (c *Client) doPipeline(ctx context.Context, method, rawURL, contentType string, body []byte) (*Response, error) {
	if method == http.MethodGet && !c.cfg.DisableSingleflight {
		resp, err, shared := c.sf.do(ctx, rawURL, func() (*Response, error) {
			return c.attempts(ctx, method, rawURL, contentType, body)
		})
		if shared {
			c.ins.Shared.With(c.cfg.Service).Inc()
		}
		return resp, err
	}
	return c.attempts(ctx, method, rawURL, contentType, body)
}

// retryableStatus reports whether a response status is worth another
// attempt. Everything else — 2xx, 3xx, and 4xx, which carry service
// semantics like "deleted" (404) and "unknown domain" — is terminal.
func retryableStatus(code int) bool {
	return code >= 500 || code == http.StatusTooManyRequests
}

// attempts runs the retry loop for one logical request.
func (c *Client) attempts(ctx context.Context, method, rawURL, contentType string, body []byte) (*Response, error) {
	svc := c.cfg.Service
	br := c.breakerFor(rawURL)
	var resp *Response
	var lastErr error
	made := 0
	for attempt := 1; attempt <= c.cfg.MaxAttempts; attempt++ {
		if attempt > 1 {
			c.ins.Retries.With(svc).Inc()
			wait := c.backoff(attempt - 1)
			_, bs := c.cfg.Tracer.StartChild(ctx, "httpx.backoff")
			bs.SetAttr(tracing.Int("before_attempt", int64(attempt)), tracing.Duration("wait", wait))
			c.cfg.Sleep(wait)
			bs.End()
		}
		if br != nil && !br.allow(c.cfg.Now()) {
			c.ins.Requests.With(svc, "breaker_open").Inc()
			// The breaker decision is a span of its own: a short-circuited
			// request shows up in the trace as "rejected locally", not as
			// a mysteriously absent network attempt.
			_, bos := c.cfg.Tracer.StartChild(ctx, "httpx.breaker_open")
			bos.SetAttr(tracing.String("host", hostOf(rawURL)))
			bos.SetError(ErrCircuitOpen)
			bos.End()
			return nil, fmt.Errorf("httpx: %s %s: %w", svc, rawURL, ErrCircuitOpen)
		}
		c.ins.Attempts.With(svc).Inc()
		made = attempt
		actx, aspan := c.cfg.Tracer.StartChild(ctx, "httpx.attempt")
		aspan.SetAttr(tracing.Int("attempt", int64(attempt)))
		start := time.Now()
		r, err := c.once(actx, method, rawURL, contentType, body)
		c.ins.AttemptDuration.With(svc).Observe(time.Since(start).Seconds())
		switch {
		case err != nil:
			aspan.SetError(err)
		default:
			aspan.SetAttr(tracing.Int("status", int64(r.StatusCode)))
			if retryableStatus(r.StatusCode) {
				aspan.SetErrorString("retryable status " + r.Status)
			}
		}
		aspan.End()
		ok := err == nil && r.StatusCode < 500
		// A caller-cancelled context is not an upstream failure; don't
		// let it move the breaker.
		if br != nil && (err == nil || ctx.Err() == nil) {
			br.record(ok, c.cfg.Now())
			c.ins.setBreakerState(svc, br)
		}
		if err != nil {
			lastErr = err
			// A dead context is terminal: the caller gave up, retrying
			// only burns the backoff budget.
			if ctx.Err() != nil {
				break
			}
			continue
		}
		r.Attempts = attempt
		resp, lastErr = r, nil
		if !retryableStatus(r.StatusCode) {
			c.ins.Requests.With(svc, "ok").Inc()
			return r, nil
		}
	}
	if resp != nil {
		// Retries exhausted on a 5xx/429: hand the response back and let
		// the service client report its own "unexpected status" error.
		c.ins.Requests.With(svc, "exhausted").Inc()
		return resp, nil
	}
	c.ins.Requests.With(svc, "error").Inc()
	return nil, fmt.Errorf("httpx: %s: %s %s: giving up after attempt %d: %w", svc, method, rawURL, made, lastErr)
}

// once performs a single network attempt and drains the body. It sends
// straight through the Transport: a redirect comes back as the response
// (graphapi.Client.Install reads its 302's Location), no header copy is
// made, and the caller, attempts, names the method and URL in its final
// error. The per-attempt Timeout is armed only when the caller's context
// has no deadline or a later one, net/http's own rule: a caller's earlier
// deadline already bounds the attempt.
func (c *Client) once(ctx context.Context, method, rawURL, contentType string, body []byte) (*Response, error) {
	if t := c.cfg.Timeout; t > 0 {
		if dl, ok := ctx.Deadline(); !ok || time.Until(dl) > t {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, t)
			defer cancel()
		}
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, rawURL, rd)
	if err != nil {
		return nil, fmt.Errorf("httpx: %w", err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	// Propagate the trace: the server's middleware picks this up and the
	// service-side span nests under this attempt in the stitched tree.
	if sp := tracing.FromContext(ctx); sp != nil {
		req.Header.Set(tracing.TraceparentHeader, sp.Traceparent())
	}
	hr, err := c.cfg.Transport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	defer hr.Body.Close()
	b, err := io.ReadAll(io.LimitReader(hr.Body, c.cfg.MaxBodyBytes))
	if err != nil {
		return nil, fmt.Errorf("httpx: reading body: %w", err)
	}
	return &Response{
		StatusCode: hr.StatusCode,
		Status:     hr.Status,
		Header:     hr.Header,
		Body:       b,
	}, nil
}

// backoff returns the jittered delay before retry n (1-based): uniform
// in [d/2, d] with d = min(BackoffMax, BackoffBase·2^(n-1)).
func (c *Client) backoff(n int) time.Duration {
	d := c.cfg.BackoffBase
	for i := 1; i < n && d < c.cfg.BackoffMax; i++ {
		d *= 2
	}
	if d > c.cfg.BackoffMax {
		d = c.cfg.BackoffMax
	}
	c.jmu.Lock()
	f := c.jitter.Float64()
	c.jmu.Unlock()
	return d/2 + time.Duration(f*float64(d/2))
}

// hostOf returns rawURL's host for span attributes ("" when unparseable).
func hostOf(rawURL string) string {
	if u, err := url.Parse(rawURL); err == nil {
		return u.Host
	}
	return ""
}

// breakerFor returns the circuit breaker for rawURL's host, creating it
// on first use; nil when breaking is disabled or the URL has no host.
func (c *Client) breakerFor(rawURL string) *breaker {
	if c.cfg.BreakerThreshold < 0 {
		return nil
	}
	u, err := url.Parse(rawURL)
	if err != nil || u.Host == "" {
		return nil
	}
	c.bmu.Lock()
	defer c.bmu.Unlock()
	b, ok := c.breakers[u.Host]
	if !ok {
		b = newBreaker(c.cfg.BreakerThreshold, c.cfg.BreakerCooldown, u.Host)
		c.breakers[u.Host] = b
	}
	return b
}
