package crawler

import (
	"errors"
	"time"

	"frappe/internal/telemetry"
)

// instruments is the crawl metric set. Every crawl, over HTTP or in
// process, runs through CrawlApp, so the paper's ~37%/~19%
// permission-crawl coverage (§2.3) is a live observable either way.
// Attempts count fetches made; the other per-kind families count surface
// outcomes. The feed rides the summary's fetch (one node read), so
// attempts{kind="feed"} does not move while its outcomes still do:
//
//	frappe_crawl_attempts_total{kind}       one per fetch made
//	frappe_crawl_successes_total{kind}      surfaces that yielded data
//	frappe_crawl_failures_total{kind}       terminal failures (incl. deleted)
//	frappe_crawl_not_crawlable_total{kind}  surfaces automation can't drive
//	frappe_crawl_deleted_total              apps gone from the graph
//	frappe_crawl_apps_total                 apps fully crawled
//	frappe_crawl_app_duration_seconds       per-app wall clock (histogram)
//
// Network-level retries, backoff, and breaker activity are counted by
// the frappe_httpx_* families (internal/httpx), underneath these.
type instruments struct {
	attempts     *telemetry.CounterVec
	successes    *telemetry.CounterVec
	failures     *telemetry.CounterVec
	notCrawlable *telemetry.CounterVec
	deleted      *telemetry.CounterVec
	apps         *telemetry.CounterVec
	appDuration  *telemetry.HistogramVec
}

// newInstruments registers the crawl metric families on reg (nil means the
// process default registry).
func newInstruments(reg *telemetry.Registry) *instruments {
	if reg == nil {
		reg = telemetry.Default()
	}
	return &instruments{
		attempts: reg.Counter("frappe_crawl_attempts_total",
			"Crawl fetch attempts, by surface kind.", "kind"),
		successes: reg.Counter("frappe_crawl_successes_total",
			"Crawl fetches that returned data, by surface kind.", "kind"),
		failures: reg.Counter("frappe_crawl_failures_total",
			"Crawl fetches that failed terminally, by surface kind.", "kind"),
		notCrawlable: reg.Counter("frappe_crawl_not_crawlable_total",
			"Crawl surfaces skipped because the install flow defeats automation, by kind.", "kind"),
		deleted: reg.Counter("frappe_crawl_deleted_total",
			"Apps found deleted from the graph during a crawl."),
		apps: reg.Counter("frappe_crawl_apps_total",
			"Apps whose crawl (all surfaces) completed."),
		appDuration: reg.Histogram("frappe_crawl_app_duration_seconds",
			"Wall-clock seconds to crawl one app across all surfaces.", nil),
	}
}

// outcome records the terminal state of one surface. A nil error is a
// success; ErrNotCrawlable counts separately from hard failures so the
// paper's coverage gap is distinguishable from service flakiness.
func (in *instruments) outcome(kind Kind, err error) {
	switch {
	case err == nil:
		in.successes.With(kind.String()).Inc()
	case errors.Is(err, ErrNotCrawlable):
		in.notCrawlable.With(kind.String()).Inc()
	default:
		in.failures.With(kind.String()).Inc()
	}
}

// finishApp records an app's full-crawl completion: duration, the deleted
// counter, and the per-surface outcomes already tallied by outcome.
func (in *instruments) finishApp(r *Result, start time.Time) {
	in.apps.With().Inc()
	in.appDuration.With().Observe(time.Since(start).Seconds())
	if r.Deleted() {
		in.deleted.With().Inc()
	}
}
