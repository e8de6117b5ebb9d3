package frappe

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"frappe/internal/core"
	"frappe/internal/crawler"
	"frappe/internal/graphapi"
	"frappe/internal/httpx"
	"frappe/internal/tracing"
	"frappe/internal/wot"
)

// servingModel pairs the classifier with the manifest describing it; the
// two swap together behind one atomic pointer so an in-flight request
// never sees a classifier from one version stamped with another's ID.
type servingModel struct {
	clf      *Classifier
	manifest ModelManifest
}

// Watchdog evaluates a single app ID on demand against live services: it
// crawls the app's on-demand features over HTTP and runs a trained
// classifier. This is the deployment §5.1 envisions — "a browser extension
// that can evaluate any Facebook application at the time when a user is
// considering installing it".
//
// The classifier is held behind an atomic pointer: SwapModel replaces it
// without interrupting in-flight assessments (each request pins the model
// it started with), which is what lets a registry watcher hot-reload new
// versions under live traffic.
type Watchdog struct {
	serving atomic.Pointer[servingModel]
	crawler *crawler.Crawler
	cache   *verdictCache
	cfg     WatchdogConfig

	// RankWorkers bounds Rank's assessment fan-out (default 8).
	RankWorkers int
}

// WatchdogConfig tunes the watchdog's resilience envelope: how hard its
// transport tries against flaky upstreams, when it stops trying (circuit
// breaker), and how long a verdict stays servable without re-crawling.
type WatchdogConfig struct {
	// GraphURL and WOTURL are the upstream service roots.
	GraphURL string
	WOTURL   string
	// Timeout bounds each upstream HTTP attempt (0 = httpx default 10s,
	// negative = no timeout).
	Timeout time.Duration
	// Retries is extra transport attempts per fetch (0 = default 2,
	// negative = none).
	Retries int
	// BreakerThreshold is consecutive upstream failures before the circuit
	// opens (0 = httpx default 5, negative = breaker disabled).
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit waits before probing
	// again (0 = httpx default 10s).
	BreakerCooldown time.Duration
	// VerdictTTL is how long a successful (or deleted) assessment is served
	// from the verdict cache; 0 disables the cache, including its per-app
	// singleflight collapse of concurrent assessments.
	VerdictTTL time.Duration
}

// NewWatchdog wires a trained classifier to a Graph-API endpoint and a WOT
// endpoint with default resilience settings. A classifier trained with
// FullFeatures works too: the aggregation features are imputed from
// training statistics when the watchdog has no cross-user view.
func NewWatchdog(clf *Classifier, graphURL, wotURL string) (*Watchdog, error) {
	return NewWatchdogWith(clf, WatchdogConfig{GraphURL: graphURL, WOTURL: wotURL})
}

// NewWatchdogWith is NewWatchdog with explicit resilience configuration.
func NewWatchdogWith(clf *Classifier, cfg WatchdogConfig) (*Watchdog, error) {
	if clf == nil {
		return nil, fmt.Errorf("frappe: nil classifier")
	}
	retries := cfg.Retries
	if retries < 0 {
		retries = 0
	} else if retries == 0 {
		retries = 2
	}
	transport := func(service string) *httpx.Client {
		return httpx.New(httpx.Config{
			Service:          service,
			Timeout:          cfg.Timeout,
			MaxAttempts:      retries + 1,
			BreakerThreshold: cfg.BreakerThreshold,
			BreakerCooldown:  cfg.BreakerCooldown,
		})
	}
	c, err := crawler.New(crawler.Config{
		Graph: &graphapi.Client{BaseURL: cfg.GraphURL, HTTP: transport("graph")},
		WOT:   &wot.Client{BaseURL: cfg.WOTURL, HTTP: transport("wot")},
	})
	if err != nil {
		return nil, fmt.Errorf("frappe: %w", err)
	}
	w := &Watchdog{crawler: c, cfg: cfg}
	w.serving.Store(&servingModel{clf: clf, manifest: fileManifest(clf)})
	if cfg.VerdictTTL > 0 {
		w.cache = newVerdictCache(cfg.VerdictTTL)
	}
	return w, nil
}

// Classifier returns the currently serving classifier.
func (w *Watchdog) Classifier() *Classifier { return w.serving.Load().clf }

// ServingManifest returns the manifest of the currently serving model. For
// classifiers loaded outside a registry (flat file, in-memory) it is a
// synthesised version-0 manifest whose checksum still identifies the model
// content.
func (w *Watchdog) ServingManifest() ModelManifest { return w.serving.Load().manifest }

// SwapModel atomically replaces the serving classifier. In-flight
// assessments finish on the model they started with; new assessments see
// the new one. The verdict cache is flushed so no verdict computed by the
// superseded model is ever served again (entries are version-keyed too, as
// a second line of defence).
func (w *Watchdog) SwapModel(clf *Classifier, m ModelManifest) error {
	if clf == nil {
		return fmt.Errorf("frappe: nil classifier")
	}
	if m.SHA256 == "" {
		m = fileManifest(clf)
	}
	w.serving.Store(&servingModel{clf: clf, manifest: m})
	if w.cache != nil {
		w.cache.flush()
	}
	return nil
}

// NewWatchdogFrom loads a serialised classifier (written with
// Classifier.Save) and wires it like NewWatchdog.
func NewWatchdogFrom(r io.Reader, graphURL, wotURL string) (*Watchdog, error) {
	return NewWatchdogFromWith(r, WatchdogConfig{GraphURL: graphURL, WOTURL: wotURL})
}

// NewWatchdogFromWith loads a serialised classifier and wires it like
// NewWatchdogWith.
func NewWatchdogFromWith(r io.Reader, cfg WatchdogConfig) (*Watchdog, error) {
	clf, err := core.Load(r)
	if err != nil {
		return nil, err
	}
	return NewWatchdogWith(clf, cfg)
}

// Evaluate crawls the app's on-demand features and classifies it.
// core.ErrNotClassifiable is returned when the app is already deleted from
// the graph.
func (w *Watchdog) Evaluate(ctx context.Context, appID string) (Verdict, error) {
	return w.evaluateWith(ctx, w.serving.Load().clf, appID)
}

func (w *Watchdog) evaluateWith(ctx context.Context, clf *Classifier, appID string) (Verdict, error) {
	r := w.crawler.CrawlApp(ctx, appID)
	// A summary crawl that failed for any reason other than deletion (the
	// Graph endpoint unreachable, say) is a crawl failure, not a verdict:
	// without this distinction a network outage would report every app as
	// deleted-and-malicious.
	if r.SummaryErr != nil && !errors.Is(r.SummaryErr, graphapi.ErrDeleted) {
		return Verdict{AppID: appID}, fmt.Errorf("frappe: crawling %s: %w", appID, r.SummaryErr)
	}
	// Feature extraction + SVM inference under one span: inference is
	// microseconds next to the crawl, but seeing it in the tree confirms a
	// verdict was computed rather than served from cache.
	_, sp := tracing.Default().StartChild(ctx, "svm.classify")
	v, err := clf.Classify(AppRecord{ID: appID, Crawl: r})
	if err != nil {
		if !errors.Is(err, core.ErrNotClassifiable) {
			sp.SetError(err)
		}
	} else {
		sp.SetAttr(tracing.Bool("malicious", v.Malicious))
		sp.SetAttr(tracing.Float("score", v.Score))
	}
	sp.End()
	return v, err
}

// ErrNotClassifiable is returned by Evaluate for apps without a crawlable
// summary (deleted or unknown).
var ErrNotClassifiable = core.ErrNotClassifiable
