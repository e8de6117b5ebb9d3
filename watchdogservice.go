package frappe

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"frappe/internal/httpx"
	"frappe/internal/telemetry"
	"frappe/internal/tracing"
	"frappe/internal/workerpool"
)

// The paper's long-term vision (§1, §9) is "an independent watchdog for
// app assessment and ranking, so as to warn Facebook users before
// installing apps". This file turns a Watchdog into exactly that: an HTTP
// assessment service plus a ranking API.

// Assessment is the watchdog service's verdict document.
type Assessment struct {
	AppID     string `json:"app_id"`
	Malicious bool   `json:"malicious"`
	// Score is the SVM decision value; higher means more malicious.
	Score float64 `json:"score"`
	// Deleted marks apps already removed from the graph — which the paper
	// treats as confirmation of maliciousness.
	Deleted bool   `json:"deleted,omitempty"`
	Error   string `json:"error,omitempty"`
	// Cause classifies why an assessment is not a plain verdict: deleted,
	// breaker_open, upstream, or canceled. Empty for a clean
	// classification.
	Cause string `json:"cause,omitempty"`
	// Cached marks verdicts served from the TTL cache or by joining
	// another request's in-flight crawl.
	Cached bool `json:"cached,omitempty"`
	// ModelVersion identifies the model that produced this assessment
	// (ModelManifest.ModelID: version number + checksum prefix), so a
	// consumer can tell which classifier generation it is looking at —
	// and so the verdict cache never serves a superseded model's verdict.
	ModelVersion string `json:"model_version,omitempty"`
	// TraceID links this assessment to its request trace: the same value
	// appears in the X-Trace-Id response header, the service's log lines,
	// and /debug/traces. It is stamped per request — a cached verdict
	// carries the trace ID of the request that retrieved it, not of the
	// one that computed it.
	TraceID string `json:"trace_id,omitempty"`
}

// Assessment causes — the /check endpoint maps each to a distinct status.
const (
	// CauseDeleted: the app is gone from the graph (a verdict; HTTP 404).
	CauseDeleted = "deleted"
	// CauseBreakerOpen: the upstream circuit breaker is open and no crawl
	// was attempted (HTTP 503 with Retry-After).
	CauseBreakerOpen = "breaker_open"
	// CauseUpstream: the upstream crawl failed transiently (HTTP 502).
	CauseUpstream = "upstream"
	// CauseCanceled: the caller's own context was canceled or timed out
	// before it had a verdict, during its own crawl or while waiting on
	// another request's (HTTP 504). Not an upstream failure: the same
	// crawl may well succeed for a caller with time left.
	CauseCanceled = "canceled"
)

// Watchdog assessment metrics (process default registry):
//
//	frappe_assessments_total{outcome}   ok / deleted / breaker_open / canceled / error
//	frappe_rank_fanout_width            workers used by the last Rank call
var (
	assessTotal = telemetry.Default().Counter("frappe_assessments_total",
		"Watchdog assessments, by outcome.", "outcome")
	rankFanout = telemetry.Default().Gauge("frappe_rank_fanout_width",
		"Worker-pool width used by the most recent Rank call.").With()
)

// Assess evaluates one app, serving from the verdict cache when one is
// configured, and folds the deleted-from-graph case into the verdict
// instead of an error: a deleted app is reported as such. Non-verdict
// outcomes carry a Cause distinguishing an open circuit breaker from an
// ordinary upstream failure.
func (w *Watchdog) Assess(ctx context.Context, appID string) Assessment {
	ctx, span := tracing.Default().StartChild(ctx, "watchdog.assess")
	span.SetAttr(tracing.String("app_id", appID))
	// Pin the serving model once: the whole assessment — cache lookup,
	// crawl, classification, version stamp — runs against one generation
	// even if a hot swap lands mid-flight.
	sm := w.serving.Load()
	var a Assessment
	if w.cache != nil {
		a = w.cache.do(ctx, appID, sm.manifest.ModelID(),
			func(cctx context.Context) Assessment { return w.assess(cctx, sm, appID) })
	} else {
		a = w.assess(ctx, sm, appID)
	}
	if a.Cause != "" {
		span.SetAttr(tracing.String("cause", a.Cause))
	}
	if a.Cached {
		span.SetAttr(tracing.Bool("cached", true))
	}
	if a.Error != "" && !a.Deleted {
		span.SetErrorString(a.Error)
	}
	span.End()
	// Stamp the live request's trace ID — even onto cached verdicts, so
	// the JSON a client sees always matches its own X-Trace-Id header.
	if tid := tracing.TraceIDFrom(ctx); tid != "" {
		a.TraceID = tid
	}
	return a
}

func (w *Watchdog) assess(ctx context.Context, sm *servingModel, appID string) Assessment {
	modelID := sm.manifest.ModelID()
	v, err := w.evaluateWith(ctx, sm.clf, appID)
	switch {
	case errors.Is(err, ErrNotClassifiable):
		assessTotal.With("deleted").Inc()
		return Assessment{AppID: appID, Deleted: true, Malicious: true,
			Cause: CauseDeleted, Error: "app removed from the graph", ModelVersion: modelID}
	case errors.Is(err, httpx.ErrCircuitOpen):
		assessTotal.With("breaker_open").Inc()
		return Assessment{AppID: appID, Cause: CauseBreakerOpen, Error: err.Error(), ModelVersion: modelID}
	case err != nil && ctx.Err() != nil:
		// The caller's own deadline or cancellation ended the crawl: a
		// 504, not the upstream's failure.
		assessTotal.With("canceled").Inc()
		return Assessment{AppID: appID, Cause: CauseCanceled, Error: err.Error(), ModelVersion: modelID}
	case err != nil:
		assessTotal.With("error").Inc()
		return Assessment{AppID: appID, Cause: CauseUpstream, Error: err.Error(), ModelVersion: modelID}
	default:
		assessTotal.With("ok").Inc()
		return Assessment{AppID: appID, Malicious: v.Malicious, Score: v.Score, ModelVersion: modelID}
	}
}

// defaultRankWorkers bounds Rank's fan-out when the Watchdog does not set
// its own width.
const defaultRankWorkers = 8

// Rank assesses many apps concurrently — a bounded worker pool, width
// min(RankWorkers, len(appIDs)) — and returns them most-suspicious first
// (deleted apps lead, then by descending score). Assessment errors are
// carried in the rows rather than aborting the ranking; once ctx is
// cancelled, remaining apps are reported with the context error.
func (w *Watchdog) Rank(ctx context.Context, appIDs []string) []Assessment {
	workers := w.RankWorkers
	if workers <= 0 {
		workers = defaultRankWorkers
	}
	if workers > len(appIDs) {
		workers = len(appIDs)
	}
	rankFanout.Set(float64(workers))

	out := make([]Assessment, len(appIDs))
	workerpool.Run(len(appIDs), workers, func(idx int) {
		if err := ctx.Err(); err != nil {
			out[idx] = Assessment{AppID: appIDs[idx], Error: err.Error()}
			return
		}
		out[idx] = w.Assess(ctx, appIDs[idx])
	})

	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Deleted != out[j].Deleted {
			return out[i].Deleted
		}
		return out[i].Score > out[j].Score
	})
	return out
}

// HealthState is a replica's routable/draining switch. A server flips it
// to draining before http.Server.Shutdown and holds it there for a grace
// window, so health-polling upstreams (frappelb's prober) de-route the
// member while in-flight requests still complete — new connections get a
// 503 /healthz instead of an abrupt connection refusal.
type HealthState struct {
	draining atomic.Bool
}

// NewHealthState returns a routable (not draining) health state.
func NewHealthState() *HealthState { return &HealthState{} }

// SetDraining flips the state; while draining, /healthz answers 503.
func (h *HealthState) SetDraining(v bool) { h.draining.Store(v) }

// Draining reports the current state.
func (h *HealthState) Draining() bool { return h.draining.Load() }

// HandlerConfig parameterises the watchdog service handler beyond its
// Watchdog: request timeout, lifecycle administration, and the cluster
// membership surface (member identity, drain-aware health, a scrapeable
// /metrics on the serving port).
type HandlerConfig struct {
	// Timeout bounds each request (0 = 10s).
	Timeout time.Duration
	// Reloader enables POST /model/reload; nil answers 501.
	Reloader *Reloader
	// Health, when non-nil, drives /healthz: 200 "ok" while routable, 503
	// "draining" once SetDraining(true). Nil means always 200.
	Health *HealthState
	// MemberID names this replica in a cluster; when set, every response
	// carries it in an X-Frappe-Member header and /healthz includes it,
	// so the front door (and tests) can tell which member answered.
	MemberID string
	// Metrics, when non-nil, is served in Prometheus text format at
	// /metrics on the serving mux — the endpoint frappelb's aggregator
	// scrapes. Nil serves the process-default registry.
	Metrics *telemetry.Registry
}

// WatchdogHandler exposes a Watchdog over HTTP:
//
//	GET /check?app=APPID            -> one Assessment
//	GET /rank?app=A&app=B&app=C     -> ranked []Assessment
//	GET /model                      -> manifest of the serving model
//	GET /metrics                    -> Prometheus text exposition
//	GET /healthz                    -> 200 ok (503 while draining)
//
// Each request is bounded by timeout (default 10s). /check maps assessment
// outcomes onto distinct statuses: a clean verdict is 200; a deleted app is
// 404 (still a verdict — the body carries the malicious-by-deletion
// assessment); an open upstream circuit breaker is 503 with a Retry-After;
// any other upstream failure is 502; a request that ran out its own
// deadline, crawling or waiting on a shared in-flight assessment, is 504.
// /rank always returns 200 and carries per-row errors, matching its
// don't-abort contract. All endpoints are instrumented as service
// "watchdog" on the default telemetry registry.
func WatchdogHandler(w *Watchdog, timeout time.Duration) http.Handler {
	return NewWatchdogHandler(w, HandlerConfig{Timeout: timeout})
}

// WatchdogHandlerWith is WatchdogHandler plus model-lifecycle
// administration when a Reloader is supplied:
//
//	POST /model/reload              -> poll the registry now; 200 with a
//	                                   ReloadStatus on swapped/current,
//	                                   502 when the registry or candidate
//	                                   is unusable
//
// With a nil reloader, /model/reload answers 501 Not Implemented (the
// server has no registry to reload from) and /model still works.
func WatchdogHandlerWith(w *Watchdog, timeout time.Duration, rel *Reloader) http.Handler {
	return NewWatchdogHandler(w, HandlerConfig{Timeout: timeout, Reloader: rel})
}

// NewWatchdogHandler is the full-surface constructor; see HandlerConfig.
func NewWatchdogHandler(w *Watchdog, cfg HandlerConfig) http.Handler {
	timeout := cfg.Timeout
	rel := cfg.Reloader
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	metricsReg := cfg.Metrics
	if metricsReg == nil {
		metricsReg = telemetry.Default()
	}
	retryAfter := strconv.Itoa(int((httpx.DefaultBreakerCooldown + time.Second - 1) / time.Second))
	if w.cfg.BreakerCooldown > 0 {
		retryAfter = strconv.Itoa(int((w.cfg.BreakerCooldown + time.Second - 1) / time.Second))
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(rw http.ResponseWriter, _ *http.Request) {
		if cfg.Health != nil && cfg.Health.Draining() {
			rw.WriteHeader(http.StatusServiceUnavailable)
			rw.Write([]byte("draining"))
			return
		}
		rw.WriteHeader(http.StatusOK)
		rw.Write([]byte("ok"))
	})
	mux.Handle("/metrics", metricsReg.Handler())
	mux.HandleFunc("/check", func(rw http.ResponseWriter, r *http.Request) {
		appID := r.URL.Query().Get("app")
		if appID == "" {
			http.Error(rw, `{"error":"missing app"}`, http.StatusBadRequest)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		a := w.Assess(ctx, appID)
		status := http.StatusOK
		switch a.Cause {
		case CauseDeleted:
			// A deleted app is a verdict (the paper treats deletion as
			// confirmation), but the resource itself is gone.
			status = http.StatusNotFound
		case CauseBreakerOpen:
			status = http.StatusServiceUnavailable
			rw.Header().Set("Retry-After", retryAfter)
		case CauseUpstream:
			status = http.StatusBadGateway
		case CauseCanceled:
			status = http.StatusGatewayTimeout
		}
		if status >= http.StatusInternalServerError {
			// A failed check (502/503/504) warns; a deletion's 404 is a
			// verdict and is counted, not logged. The ctx carries the
			// request span, so the trace-aware slog handler stamps
			// trace_id — an operator can jump from this line straight to
			// the span tree at /debug/traces.
			slog.Default().WarnContext(ctx, "watchdog: non-OK assessment",
				"app", appID, "status", status, "cause", a.Cause, "err", a.Error)
		}
		writeAssessJSON(rw, status, a)
	})
	mux.HandleFunc("/rank", func(rw http.ResponseWriter, r *http.Request) {
		ids := r.URL.Query()["app"]
		if len(ids) == 0 {
			http.Error(rw, `{"error":"missing app parameters"}`, http.StatusBadRequest)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		writeAssessJSON(rw, http.StatusOK, w.Rank(ctx, ids))
	})
	mux.HandleFunc("/model", func(rw http.ResponseWriter, r *http.Request) {
		m := w.ServingManifest()
		writeAssessJSON(rw, http.StatusOK, struct {
			ModelID  string        `json:"model_id"`
			Manifest ModelManifest `json:"manifest"`
		}{ModelID: m.ModelID(), Manifest: m})
	})
	mux.HandleFunc("/model/reload", func(rw http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(rw, `{"error":"POST only"}`, http.StatusMethodNotAllowed)
			return
		}
		if rel == nil {
			http.Error(rw, `{"error":"no model registry configured"}`, http.StatusNotImplemented)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		st := rel.Check(ctx)
		status := http.StatusOK
		if st.Outcome != ReloadSwapped && st.Outcome != ReloadCurrent {
			status = http.StatusBadGateway
		}
		writeAssessJSON(rw, status, st)
	})
	var h http.Handler = mux
	if cfg.MemberID != "" {
		inner := h
		h = http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			rw.Header().Set("X-Frappe-Member", cfg.MemberID)
			inner.ServeHTTP(rw, r)
		})
	}
	return telemetry.Middleware(nil, "watchdog", h)
}

func writeAssessJSON(rw http.ResponseWriter, status int, v interface{}) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	if err := json.NewEncoder(rw).Encode(v); err != nil {
		// The status line is gone; all that's left is to make the failure
		// visible to operators.
		slog.Default().Error("watchdog: encoding assessment response", "err", err)
	}
}
