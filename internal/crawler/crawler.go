// Package crawler reproduces the paper's Selenium-instrumented crawling
// pipeline (§2.3): given a list of app IDs, it fetches each app's summary,
// profile feed, and installation parameters from a Graph-API-compatible
// endpoint, and resolves the WOT reputation of the redirect-URI domain.
// The feed rides the summary's fetch: both are one node read, the Graph
// API's field expansion, so a live app costs two Graph-API requests (the
// node and the installation URL) and a deleted one costs one.
// /check crawls over HTTP; the dataset build and the §5.3 sweep crawl a
// world in process through the same CrawlApp. FRAppE Lite reads only
// whether the profile page has a post, so an on-demand crawl reads one
// post; the dataset build reads the whole feed (Config.WholeFeed), whose
// post counts Fig 9 plots.
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
	"time"

	"frappe/internal/graphapi"
	"frappe/internal/telemetry"
	"frappe/internal/tracing"
	"frappe/internal/workerpool"
	"frappe/internal/wot"
)

// Kind identifies one crawl surface.
type Kind int

const (
	// KindSummary is the Open Graph node fetch: the summary, with the
	// profile feed's first posts expanded into it.
	KindSummary Kind = iota
	// KindFeed is the profile feed, read by the KindSummary fetch.
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

// fetchSpan names each fetch's span.
var fetchSpan = [...]string{
	KindSummary: "crawl.summary",
	KindInstall: "crawl.install",
}

// ErrNotCrawlable marks apps whose redirection flow defeats the crawler.
var ErrNotCrawlable = errors.New("crawler: install flow not automatable")

// Result is everything learned about one app.
type Result struct {
	AppID string

	Summary    *graphapi.Summary
	SummaryErr error

	// Feed holds the profile page's first post, if it has one, or its
	// whole feed when the crawl was configured with WholeFeed.
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

// Graph is the Graph API as the crawler reads it. graphapi.Client reads it
// over HTTP and graphapi.Local in process; both answer graphapi.ErrDeleted
// for an app gone from the graph. Node reads the summary and the profile
// feed's first feedLimit posts, or the whole feed when feedLimit <= 0.
type Graph interface {
	Node(ctx context.Context, id string, feedLimit int) (graphapi.Node, error)
	Install(ctx context.Context, id string) (graphapi.InstallInfo, error)
}

// Reputation is the WOT lookup on the install redirect's domain.
// wot.Client answers it over HTTP and wot.Service in process.
type Reputation interface {
	ScoreOrUnknown(ctx context.Context, rawURL string) int
}

// Config wires the crawler to its services.
type Config struct {
	Graph Graph
	WOT   Reputation
	// Workers is Crawl's parallelism (default 8).
	Workers int
	// WholeFeed reads each app's whole profile feed instead of its first
	// post. An on-demand crawl needs one post, the most the classifier
	// reads; the dataset build sets it, because Fig 9 and the lab store
	// record post counts.
	WholeFeed bool
	// Flakiness, if non-nil, reports whether a given surface of a given
	// app is automatable at all; it models the paper's human-oriented
	// redirect chains. Nil means everything is automatable.
	Flakiness func(appID string, kind Kind) bool
	// Telemetry receives crawl metrics; nil means the process default
	// registry.
	Telemetry *telemetry.Registry
}

// Crawler fetches app features. Retries, backoff and circuit breaking
// live in the service clients' httpx transport, not here.
type Crawler struct {
	cfg Config
	ins *instruments
}

// New returns a Crawler. Graph must be non-nil; WOT may be nil (scores are
// then reported unknown).
func New(cfg Config) (*Crawler, error) {
	if cfg.Graph == nil {
		return nil, errors.New("crawler: nil graph client")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	return &Crawler{cfg: cfg, ins: newInstruments(cfg.Telemetry)}, nil
}

// Crawl runs CrawlApp over every app ID, Workers at a time, and returns
// the results keyed by ID. Once ctx is done, apps not yet started are
// skipped and Crawl returns ctx's error; a fetch in flight is interrupted
// too, since every transport attempt is made on the caller's context.
func (c *Crawler) Crawl(ctx context.Context, ids []string) (map[string]*Result, error) {
	slots := make([]*Result, len(ids))
	workerpool.Run(len(ids), c.cfg.Workers, func(i int) {
		if ctx.Err() == nil {
			slots[i] = c.CrawlApp(ctx, ids[i])
		}
	})
	results := make(map[string]*Result, len(ids))
	for i, r := range slots {
		if r != nil {
			results[ids[i]] = r
		}
	}
	return results, ctx.Err()
}

// CrawlApp crawls one app: the node (the summary and the profile feed, in
// one fetch), the install flow, then WOT on the install redirect's
// domain. The feed shares the node read's error; otherwise the Flakiness
// oracle's KindFeed verdict decides whether the posts it brought count.
// An app whose node answers deleted is deleted on every surface (§2.3),
// so its install flow is not fetched.
func (c *Crawler) CrawlApp(ctx context.Context, id string) *Result {
	start := time.Now()
	r := &Result{AppID: id, WOTScore: wot.UnknownScore}
	defer func() { c.ins.finishApp(r, start) }()
	ctx, span := tracing.Default().StartChild(ctx, "crawl.app")
	span.SetAttr(tracing.String("app_id", id))
	defer span.End()

	node, err := fetch(ctx, c, KindSummary, id, c.node)
	r.Summary, r.SummaryErr = node.Summary, err
	switch {
	case err != nil:
		r.FeedErr = err
	case !c.crawlable(id, KindFeed):
		r.FeedErr = ErrNotCrawlable
	default:
		r.Feed = node.Feed
	}
	c.ins.outcome(KindFeed, r.FeedErr)
	if r.Deleted() {
		span.SetAttr(tracing.Bool("deleted", true))
		r.InstallErr = graphapi.ErrDeleted
		c.ins.outcome(KindInstall, r.InstallErr)
		return r
	}
	r.Install, r.InstallErr = fetch(ctx, c, KindInstall, id, c.cfg.Graph.Install)
	if r.InstallErr == nil && c.cfg.WOT != nil {
		r.WOTScore = c.fetchWOT(ctx, r.Install.RedirectURI)
	}
	return r
}

// fetch reads one surface of app id under a span and records its terminal
// outcome; a surface the Flakiness oracle rules out is ErrNotCrawlable
// without a fetch. Transport-level retry, backoff, and terminal-error
// classification (deleted and not-crawlable are never retried) live in
// internal/httpx, underneath the service clients — the crawler only
// observes the result.
func fetch[T any](ctx context.Context, c *Crawler, kind Kind, id string, get func(context.Context, string) (T, error)) (T, error) {
	if !c.crawlable(id, kind) {
		c.ins.outcome(kind, ErrNotCrawlable)
		var zero T
		return zero, ErrNotCrawlable
	}
	c.ins.attempts.With(kind.String()).Inc()
	sctx, span := tracing.Default().StartChild(ctx, fetchSpan[kind])
	v, err := get(sctx, id)
	if err != nil && !errors.Is(err, graphapi.ErrDeleted) {
		span.SetError(err)
	}
	span.End()
	c.ins.outcome(kind, err)
	return v, err
}

// crawlable reports whether the Flakiness oracle lets the crawl read
// surface kind of app id.
func (c *Crawler) crawlable(id string, kind Kind) bool {
	return c.cfg.Flakiness == nil || c.cfg.Flakiness(id, kind)
}

// node reads app id's node: the summary and the profile feed's first
// post, or its whole feed under WholeFeed.
func (c *Crawler) node(ctx context.Context, id string) (graphapi.Node, error) {
	limit := 1
	if c.cfg.WholeFeed {
		limit = 0
	}
	return c.cfg.Graph.Node(ctx, id, limit)
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
