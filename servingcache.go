package frappe

import (
	"context"
	"sync"
	"time"

	"frappe/internal/telemetry"
	"frappe/internal/tracing"
)

// The watchdog's serving path absorbs repeated traffic with two layers:
// a TTL verdict cache (an app's verdict rarely changes within seconds),
// and a per-app-ID singleflight so a burst of /check requests for the
// same app costs one upstream crawl, not N. Only conclusive assessments
// — a classification or a deleted-app verdict — are cached; upstream
// failures and breaker rejections are never served stale.
//
// The cache is model-version-aware: every lookup carries the serving
// model's ID, entries stamped by a different model read as stale, and a
// hot swap flushes the table outright — a verdict computed by a
// superseded classifier is never served. In-flight singleflight leaders
// are version-pinned too: a request that arrives after a swap does not
// join a flight still computing on the old model.
//
// Metrics (process default registry):
//
//	frappe_verdict_cache_total{result}        hit / miss / expired / stale_model
//	frappe_verdict_cache_size                 live cached verdicts
//	frappe_verdict_cache_flush_total          wholesale flushes (model swaps)
//	frappe_verdict_singleflight_shared_total  assessments answered by
//	                                          joining an in-flight crawl
var (
	verdictCacheTotal = telemetry.Default().Counter("frappe_verdict_cache_total",
		"Verdict cache lookups, by result.", "result")
	verdictCacheSize = telemetry.Default().Gauge("frappe_verdict_cache_size",
		"Verdicts currently held in the watchdog serving cache.").With()
	verdictCacheFlush = telemetry.Default().Counter("frappe_verdict_cache_flush_total",
		"Wholesale verdict-cache flushes (model swaps).").With()
	verdictShared = telemetry.Default().Counter("frappe_verdict_singleflight_shared_total",
		"Assessments answered by joining another request's in-flight crawl.").With()
)

type verdictEntry struct {
	a   Assessment
	exp time.Time
}

type verdictFlight struct {
	done    chan struct{}
	a       Assessment
	modelID string // model generation this flight computes under
	// canceled records that the computation failed with its leader's
	// context done: the failure is the leader's, not the upstream's.
	canceled bool
}

// verdictCache is the TTL + singleflight serving layer. Safe for
// concurrent use.
type verdictCache struct {
	ttl time.Duration
	now func() time.Time // test seam

	mu      sync.Mutex
	entries map[string]verdictEntry
	flights map[string]*verdictFlight
}

func newVerdictCache(ttl time.Duration) *verdictCache {
	return &verdictCache{
		ttl:     ttl,
		now:     time.Now,
		entries: make(map[string]verdictEntry),
		flights: make(map[string]*verdictFlight),
	}
}

// cacheable reports whether an assessment is conclusive enough to serve
// again: a verdict or a deleted-app finding, never a transport failure.
func cacheable(a Assessment) bool {
	return a.Error == "" || a.Deleted
}

// do returns appID's assessment under the given model generation: from
// cache when fresh and produced by the same model, by joining an in-flight
// same-model computation when one exists, or by running fn with a context
// carrying this layer's span (so the crawl underneath joins the request
// trace). The returned assessment has Cached set when it was not computed
// by this caller. A joiner never inherits a flight that failed because
// its leader's context ended: with its own context live it looks again
// (the cache, then the flights) without counting a second lookup, and
// with its own context done it gets its own cancellation.
func (c *verdictCache) do(ctx context.Context, appID, modelID string, fn func(context.Context) Assessment) Assessment {
	result := "miss"
	c.mu.Lock()
	if e, ok := c.entries[appID]; ok {
		switch {
		case e.a.ModelVersion != modelID:
			// Swap-flush already clears these wholesale; this guards the
			// race where an old-model flight completed after the flush.
			delete(c.entries, appID)
			verdictCacheSize.Set(float64(len(c.entries)))
			result = "stale_model"
		case c.now().Before(e.exp):
			c.mu.Unlock()
			verdictCacheTotal.With("hit").Inc()
			markCacheLookup(ctx, "hit")
			a := e.a
			a.Cached = true
			return a
		default:
			delete(c.entries, appID)
			verdictCacheSize.Set(float64(len(c.entries)))
			result = "expired"
		}
	}
	verdictCacheTotal.With(result).Inc()
	fl, joined := c.flightLocked(appID, modelID)
	c.mu.Unlock()
	markCacheLookup(ctx, result)
	for joined {
		_, sp := tracing.Default().StartChild(ctx, "verdict.singleflight")
		select {
		case <-fl.done:
			sp.End()
		case <-ctx.Done():
			// The joiner's own context gave out, not the upstream: the
			// flight it was waiting on is still running and may succeed.
			// Blaming the upstream here (as this branch once did) made a
			// client-side timeout surface as a 502 and pollute upstream
			// error accounting.
			sp.SetError(ctx.Err())
			sp.End()
			return canceledAssessment(ctx, appID)
		}
		if !fl.canceled {
			verdictShared.Inc()
			a := fl.a
			a.Cached = true
			return a
		}
		if ctx.Err() != nil {
			return canceledAssessment(ctx, appID)
		}
		// The flight failed because its leader's context ended, and ours
		// is live: look again, without counting a second lookup.
		c.mu.Lock()
		if e, ok := c.entries[appID]; ok && e.a.ModelVersion == modelID && c.now().Before(e.exp) {
			c.mu.Unlock()
			a := e.a
			a.Cached = true
			return a
		}
		fl, joined = c.flightLocked(appID, modelID)
		c.mu.Unlock()
	}

	cctx, sp := tracing.Default().StartChild(ctx, "verdict.compute")
	a := fn(cctx)
	sp.End()

	c.mu.Lock()
	fl.a = a
	fl.canceled = !cacheable(a) && ctx.Err() != nil
	// A newer-model flight may have replaced this map slot mid-swap; a
	// superseded flight neither clears the slot nor caches its result, so
	// it cannot overwrite the newer model's entry.
	if owner := c.flights[appID] == fl; owner {
		delete(c.flights, appID)
		if cacheable(a) && a.ModelVersion == modelID {
			c.entries[appID] = verdictEntry{a: a, exp: c.now().Add(c.ttl)}
			verdictCacheSize.Set(float64(len(c.entries)))
		}
	}
	c.mu.Unlock()
	close(fl.done)
	return a
}

// flightLocked returns appID's in-flight computation under modelID to
// join (joined true), or registers a new one for the caller to lead.
// c.mu must be held.
func (c *verdictCache) flightLocked(appID, modelID string) (fl *verdictFlight, joined bool) {
	if fl, ok := c.flights[appID]; ok && fl.modelID == modelID {
		return fl, true
	}
	fl = &verdictFlight{done: make(chan struct{}), modelID: modelID}
	c.flights[appID] = fl
	return fl, false
}

// canceledAssessment is the answer to a caller whose own context ended
// while it waited.
func canceledAssessment(ctx context.Context, appID string) Assessment {
	return Assessment{AppID: appID, Error: ctx.Err().Error(), Cause: CauseCanceled}
}

// markCacheLookup drops a zero-length marker span recording how the
// verdict-cache lookup resolved, so a trace shows hit/miss/expired/
// stale_model at a glance.
func markCacheLookup(ctx context.Context, result string) {
	_, sp := tracing.Default().StartChild(ctx, "verdict.cache")
	sp.SetAttr(tracing.String("result", result))
	sp.End()
}

// flush empties the verdict table — called on model swap so no verdict of
// a superseded model survives. In-flight computations are left to finish;
// their results are version-checked before re-entering the table.
func (c *verdictCache) flush() {
	c.mu.Lock()
	c.entries = make(map[string]verdictEntry)
	verdictCacheSize.Set(0)
	c.mu.Unlock()
	verdictCacheFlush.Inc()
}
