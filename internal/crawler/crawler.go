// Package crawler reproduces the paper's Selenium-instrumented crawling
// pipeline (§2.3): given a list of app IDs, it fetches each app's summary,
// profile feed, and installation parameters from a Graph-API-compatible
// endpoint, and resolves the WOT reputation of the redirect-URI domain.
//
// Like the original, the crawler is imperfect in app-dependent ways:
// deleted apps fail outright (the API returns `false`), and many live apps
// have human-oriented install redirection flows that defeat automation —
// the paper could crawl permissions for only ~37% of benign and ~19% of
// malicious apps. Callers model that with a Flakiness oracle.
package crawler

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"frappe/internal/graphapi"
	"frappe/internal/httpx"
	"frappe/internal/telemetry"
	"frappe/internal/tracing"
	"frappe/internal/wot"
)

// Kind identifies one crawl surface.
type Kind int

const (
	// KindSummary is the Open Graph summary fetch.
	KindSummary Kind = iota
	// KindFeed is the profile-feed fetch.
	KindFeed
	// KindInstall is the installation-URL parameter scrape.
	KindInstall
)

// String names the crawl surface.
func (k Kind) String() string {
	switch k {
	case KindSummary:
		return "summary"
	case KindFeed:
		return "feed"
	case KindInstall:
		return "install"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// fetchSpan names each surface's fetch span.
var fetchSpan = [...]string{
	KindSummary: "crawl.summary",
	KindFeed:    "crawl.feed",
	KindInstall: "crawl.install",
}

// ErrNotCrawlable marks apps whose redirection flow defeats the crawler.
var ErrNotCrawlable = errors.New("crawler: install flow not automatable")

// Result is everything learned about one app.
type Result struct {
	AppID string

	Summary    *graphapi.Summary
	SummaryErr error

	Feed    []graphapi.FeedPost
	FeedErr error

	Install    graphapi.InstallInfo
	InstallErr error

	// WOTScore is the reputation of the redirect-URI domain, or
	// wot.UnknownScore when WOT has no data (or the install crawl failed).
	WOTScore int
}

// Deleted reports whether the app appears removed from the graph.
func (r *Result) Deleted() bool {
	return errors.Is(r.SummaryErr, graphapi.ErrDeleted)
}

// Config wires the crawler to its services.
type Config struct {
	Graph *graphapi.Client
	WOT   *wot.Client
	// Workers is the crawl parallelism (default 8).
	Workers int
	// Retries is how many extra transport attempts each fetch gets
	// (default 2). It only applies to clients without an explicit
	// httpx transport: New installs one configured with this budget.
	Retries int
	// Flakiness, if non-nil, reports whether a given surface of a given
	// app is automatable at all; it models the paper's human-oriented
	// redirect chains. Nil means everything is automatable.
	Flakiness func(appID string, kind Kind) bool
	// Telemetry receives crawl metrics; nil means the process default
	// registry.
	Telemetry *telemetry.Registry
}

// Crawler fetches app features concurrently.
type Crawler struct {
	cfg Config
	ins *Instruments
}

// New returns a Crawler. Graph must be non-nil; WOT may be nil (scores are
// then reported unknown). Clients without an explicit httpx transport get
// one here, sized to cfg.Retries — retries, backoff, and circuit breaking
// all live in that shared layer, not in the crawler.
func New(cfg Config) (*Crawler, error) {
	if cfg.Graph == nil {
		return nil, errors.New("crawler: nil graph client")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	} else if cfg.Retries == 0 {
		cfg.Retries = 2
	}
	if cfg.Graph.HTTP == nil {
		cfg.Graph.HTTP = httpx.New(httpx.Config{
			Service:     "graph",
			MaxAttempts: cfg.Retries + 1,
			Telemetry:   cfg.Telemetry,
		})
	}
	if cfg.WOT != nil && cfg.WOT.HTTP == nil {
		cfg.WOT.HTTP = httpx.New(httpx.Config{
			Service:     "wot",
			MaxAttempts: cfg.Retries + 1,
			Telemetry:   cfg.Telemetry,
		})
	}
	return &Crawler{cfg: cfg, ins: NewInstruments(cfg.Telemetry)}, nil
}

// Crawl fetches every app ID and returns results keyed by ID. The context
// cancels outstanding work between apps (an in-flight HTTP request is not
// interrupted mid-flight beyond the client's own timeout).
func (c *Crawler) Crawl(ctx context.Context, ids []string) (map[string]*Result, error) {
	results := make(map[string]*Result, len(ids))
	var mu sync.Mutex
	work := make(chan string)
	var wg sync.WaitGroup

	for i := 0; i < c.cfg.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range work {
				r := c.crawlOne(ctx, id)
				mu.Lock()
				results[id] = r
				mu.Unlock()
			}
		}()
	}
	var ctxErr error
feed:
	for _, id := range ids {
		select {
		case <-ctx.Done():
			ctxErr = ctx.Err()
			break feed
		case work <- id:
		}
	}
	close(work)
	wg.Wait()
	return results, ctxErr
}

// fetch runs one surface fetch under a span and records its terminal
// outcome. Transport-level retry, backoff, and terminal-error
// classification (deleted and not-crawlable are never retried) live in
// internal/httpx, underneath the service clients — the crawler only
// observes the result.
func (c *Crawler) fetch(ctx context.Context, kind Kind, fn func(context.Context) error) error {
	c.ins.Attempts.With(kind.String()).Inc()
	sctx, span := tracing.Default().StartChild(ctx, fetchSpan[kind])
	err := fn(sctx)
	if err != nil && !errors.Is(err, graphapi.ErrDeleted) {
		span.SetError(err)
	}
	span.End()
	c.ins.Outcome(kind, err)
	return err
}

func (c *Crawler) automatable(id string, kind Kind) bool {
	return c.cfg.Flakiness == nil || c.cfg.Flakiness(id, kind)
}

func (c *Crawler) crawlOne(ctx context.Context, id string) *Result {
	start := time.Now()
	r := &Result{AppID: id, WOTScore: wot.UnknownScore}
	defer func() { c.ins.FinishApp(r, start) }()
	ctx, span := tracing.Default().StartChild(ctx, "crawl.app")
	span.SetAttr(tracing.String("app_id", id))
	defer span.End()

	r.SummaryErr = c.fetch(ctx, KindSummary, func(ctx context.Context) error {
		s, err := c.cfg.Graph.Summary(ctx, id)
		if err != nil {
			return err
		}
		r.Summary = s
		return nil
	})

	if c.automatable(id, KindFeed) {
		r.FeedErr = c.fetch(ctx, KindFeed, func(ctx context.Context) error {
			feed, err := c.cfg.Graph.Feed(ctx, id)
			if err != nil {
				return err
			}
			r.Feed = feed
			return nil
		})
	} else {
		r.FeedErr = ErrNotCrawlable
		c.ins.Outcome(KindFeed, r.FeedErr)
	}

	if c.automatable(id, KindInstall) {
		r.InstallErr = c.fetch(ctx, KindInstall, func(ctx context.Context) error {
			info, err := c.cfg.Graph.Install(ctx, id)
			if err != nil {
				return err
			}
			r.Install = info
			return nil
		})
	} else {
		r.InstallErr = ErrNotCrawlable
		c.ins.Outcome(KindInstall, r.InstallErr)
	}

	if r.InstallErr == nil && c.cfg.WOT != nil {
		r.WOTScore = c.fetchWOT(ctx, r.Install.RedirectURI)
	}
	if r.Deleted() {
		span.SetAttr(tracing.Bool("deleted", true))
	}
	return r
}

// fetchWOT resolves the redirect-URI domain's reputation under its own
// span (WOT has no data for most domains; that is a result, not an error).
func (c *Crawler) fetchWOT(ctx context.Context, rawURL string) int {
	sctx, span := tracing.Default().StartChild(ctx, "crawl.wot")
	score := c.cfg.WOT.ScoreOrUnknown(sctx, rawURL)
	span.SetAttr(tracing.Int("score", int64(score)))
	span.End()
	return score
}
