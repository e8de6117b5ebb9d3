package crawler

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"frappe/internal/fbplatform"
	"frappe/internal/graphapi"
	"frappe/internal/httpx"
	"frappe/internal/telemetry"
	"frappe/internal/wot"
)

func testStack(t *testing.T) (*fbplatform.Platform, Config, func()) {
	t.Helper()
	p := fbplatform.New(100)
	apps := []*fbplatform.App{
		{
			ID: "1", Name: "Good App",
			Description: "d", Company: "c", Category: "Games",
			Permissions: []string{fbplatform.PermPublishStream, fbplatform.PermEmail},
			RedirectURI: "https://apps.facebook.com/good",
			ProfileFeed: []fbplatform.ProfilePost{{Message: "hi"}},
			Truth:       fbplatform.Truth{HackerID: -1},
		},
		{
			ID: "2", Name: "Scam",
			Permissions: []string{fbplatform.PermPublishStream},
			RedirectURI: "http://unknownscam.example/x",
			Truth:       fbplatform.Truth{Malicious: true},
		},
		{
			ID: "3", Name: "Gone",
			Permissions: []string{fbplatform.PermPublishStream},
			Truth:       fbplatform.Truth{Malicious: true},
		},
	}
	for _, a := range apps {
		if err := p.Register(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Delete("3"); err != nil {
		t.Fatal(err)
	}

	gsrv := httptest.NewServer(graphapi.NewServer(p))
	wsvc := wot.NewService()
	if err := wsvc.SetScore("apps.facebook.com", 92); err != nil {
		t.Fatal(err)
	}
	wsrv := httptest.NewServer(wsvc)

	cfg := Config{
		Graph:   &graphapi.Client{BaseURL: gsrv.URL},
		WOT:     &wot.Client{BaseURL: wsrv.URL},
		Workers: 4,
	}
	return p, cfg, func() { gsrv.Close(); wsrv.Close() }
}

func TestCrawlBasic(t *testing.T) {
	_, cfg, done := testStack(t)
	defer done()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	results, err := c.Crawl(context.Background(), []string{"1", "2", "3"})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}

	r1 := results["1"]
	if r1.SummaryErr != nil || r1.Summary.Name != "Good App" {
		t.Errorf("app 1 summary: %+v err=%v", r1.Summary, r1.SummaryErr)
	}
	if r1.FeedErr != nil || len(r1.Feed) != 1 {
		t.Errorf("app 1 feed: %v err=%v", r1.Feed, r1.FeedErr)
	}
	if r1.InstallErr != nil || len(r1.Install.Permissions) != 2 {
		t.Errorf("app 1 install: %+v err=%v", r1.Install, r1.InstallErr)
	}
	if r1.WOTScore != 92 {
		t.Errorf("app 1 WOT = %d, want 92", r1.WOTScore)
	}
	if r1.Deleted() {
		t.Error("live app reported deleted")
	}

	r2 := results["2"]
	if r2.WOTScore != wot.UnknownScore {
		t.Errorf("scam WOT = %d, want unknown", r2.WOTScore)
	}

	r3 := results["3"]
	if !r3.Deleted() {
		t.Error("deleted app not detected")
	}
	if !errors.Is(r3.InstallErr, graphapi.ErrDeleted) {
		t.Errorf("deleted install err = %v", r3.InstallErr)
	}
}

func TestFlakinessOracle(t *testing.T) {
	_, cfg, done := testStack(t)
	defer done()
	cfg.Flakiness = func(appID string, kind Kind) bool {
		return !(appID == "1" && kind == KindInstall)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	results, err := c.Crawl(context.Background(), []string{"1", "2"})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(results["1"].InstallErr, ErrNotCrawlable) {
		t.Errorf("install err = %v, want ErrNotCrawlable", results["1"].InstallErr)
	}
	if results["1"].WOTScore != wot.UnknownScore {
		t.Error("WOT should be unknown when install crawl fails")
	}
	if results["2"].InstallErr != nil {
		t.Errorf("app 2 install err = %v", results["2"].InstallErr)
	}
}

func TestRetryOnTransientFailure(t *testing.T) {
	p := fbplatform.New(10)
	if err := p.Register(&fbplatform.App{
		ID: "1", Name: "App",
		Permissions: []string{fbplatform.PermPublishStream},
		Truth:       fbplatform.Truth{HackerID: -1},
	}); err != nil {
		t.Fatal(err)
	}
	inner := graphapi.NewServer(p)
	var calls int32
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// First two requests fail; the crawl needs its retries.
		if atomic.AddInt32(&calls, 1) <= 2 {
			http.Error(w, "transient", http.StatusBadGateway)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer flaky.Close()

	c, err := New(Config{Graph: &graphapi.Client{BaseURL: flaky.URL,
		HTTP: httpx.New(httpx.Config{Service: "graph", MaxAttempts: 4})}})
	if err != nil {
		t.Fatal(err)
	}
	results, err := c.Crawl(context.Background(), []string{"1"})
	if err != nil {
		t.Fatal(err)
	}
	if results["1"].SummaryErr != nil {
		t.Errorf("summary should succeed after retries: %v", results["1"].SummaryErr)
	}
}

func TestCrawlContextCancel(t *testing.T) {
	_, cfg, done := testStack(t)
	defer done()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ids := make([]string, 500)
	for i := range ids {
		ids[i] = "1"
	}
	if _, err := c.Crawl(ctx, ids); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil graph client: want error")
	}
	c, err := New(Config{Graph: &graphapi.Client{}})
	if err != nil {
		t.Fatal(err)
	}
	if c.cfg.Workers != 8 {
		t.Errorf("defaults: %+v", c.cfg)
	}
}

func TestKindString(t *testing.T) {
	if KindSummary.String() != "summary" || KindFeed.String() != "feed" || KindInstall.String() != "install" {
		t.Error("Kind names wrong")
	}
}

// TestCrawlTelemetry: the crawl instrumentation must expose the paper's
// coverage gap — per-kind attempts, successes, failures, and the
// ErrNotCrawlable rate — on the registry the crawler was configured with.
func TestCrawlTelemetry(t *testing.T) {
	_, cfg, done := testStack(t)
	defer done()
	reg := telemetry.New()
	cfg.Telemetry = reg
	cfg.Flakiness = func(appID string, kind Kind) bool {
		return !(appID == "1" && kind == KindInstall)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// App 1: summary+feed ok, install not crawlable. App 2: all ok.
	// App 3: deleted; its node read fails, failing its feed with it, and
	// its install fails without a fetch. The feed rides the summary's
	// fetch, so it counts no attempt of its own.
	if _, err := c.Crawl(context.Background(), []string{"1", "2", "3"}); err != nil {
		t.Fatal(err)
	}

	if got := reg.CounterValue("frappe_crawl_attempts_total", "summary"); got != 3 {
		t.Errorf("summary attempts = %d, want 3", got)
	}
	if got := reg.CounterValue("frappe_crawl_successes_total", "summary"); got != 2 {
		t.Errorf("summary successes = %d, want 2", got)
	}
	if got := reg.CounterValue("frappe_crawl_failures_total", "summary"); got != 1 {
		t.Errorf("summary failures = %d, want 1", got)
	}
	if got := reg.CounterValue("frappe_crawl_failures_total", "feed"); got != 1 {
		t.Errorf("feed failures = %d, want 1", got)
	}
	if got := reg.CounterValue("frappe_crawl_successes_total", "feed"); got != 2 {
		t.Errorf("feed successes = %d, want 2", got)
	}
	if got := reg.CounterValue("frappe_crawl_attempts_total", "feed"); got != 0 {
		t.Errorf("feed attempts = %d, want 0", got)
	}
	if got := reg.CounterValue("frappe_crawl_not_crawlable_total", "install"); got != 1 {
		t.Errorf("install not-crawlable = %d, want 1", got)
	}
	if got := reg.CounterValue("frappe_crawl_deleted_total"); got != 1 {
		t.Errorf("deleted = %d, want 1", got)
	}
	if got := reg.CounterValue("frappe_crawl_apps_total"); got != 3 {
		t.Errorf("apps = %d, want 3", got)
	}
	if _, count := reg.HistogramSum("frappe_crawl_app_duration_seconds"); count != 3 {
		t.Errorf("app duration observations = %d, want 3", count)
	}
}

// TestDeletedAppCostsOneRequest: a deleted app answers `false` on every
// surface, so a node read answered deleted ends its crawl: one Graph-API
// request, feed and install reported deleted, one attempt counted. A
// live, crawlable app costs two: the node read, which asks for the
// summary and one feed post, and the installation URL, whose 302 the
// install is read from. Nothing requests /feed or fetches the
// redirect's target.
func TestDeletedAppCostsOneRequest(t *testing.T) {
	cases := []struct {
		name     string
		id       string
		deleted  bool
		requests int32
		attempts map[string]uint64
	}{
		{name: "deleted", id: "3", deleted: true, requests: 1, attempts: map[string]uint64{"summary": 1, "feed": 0, "install": 0}},
		{name: "live", id: "1", requests: 2, attempts: map[string]uint64{"summary": 1, "feed": 0, "install": 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, _, done := testStack(t)
			defer done()
			inner := graphapi.NewServer(p)
			var hits, nodes atomic.Int32
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				hits.Add(1)
				switch {
				case r.URL.Path == "/install":
					t.Errorf("crawl fetched the install redirect's target %s", r.URL)
				case strings.HasSuffix(r.URL.Path, "/feed"):
					t.Errorf("crawl requested the feed route %s", r.URL)
				case r.URL.Path == "/"+tc.id:
					nodes.Add(1)
					if !strings.HasSuffix(r.URL.Query().Get("fields"), ",feed.limit(1)") {
						t.Errorf("node request %s; want its fields to ask for feed.limit(1)", r.URL)
					}
				}
				inner.ServeHTTP(w, r)
			}))
			defer srv.Close()
			reg := telemetry.New()
			c, err := New(Config{Graph: &graphapi.Client{BaseURL: srv.URL}, Telemetry: reg})
			if err != nil {
				t.Fatal(err)
			}

			r := c.CrawlApp(context.Background(), tc.id)
			if tc.deleted {
				if !r.Deleted() || !errors.Is(r.FeedErr, graphapi.ErrDeleted) || !errors.Is(r.InstallErr, graphapi.ErrDeleted) {
					t.Errorf("deleted app: summary %v, feed %v, install %v; want ErrDeleted on all three",
						r.SummaryErr, r.FeedErr, r.InstallErr)
				}
			} else if r.SummaryErr != nil || r.FeedErr != nil || r.InstallErr != nil || len(r.Install.Permissions) != 2 {
				t.Errorf("live app: summary %v, feed %v, install %+v, %v; want every surface read",
					r.SummaryErr, r.FeedErr, r.Install, r.InstallErr)
			}
			if n := hits.Load(); n != tc.requests {
				t.Errorf("Graph-API requests = %d, want %d", n, tc.requests)
			}
			if n := nodes.Load(); n != 1 {
				t.Errorf("node requests = %d, want 1", n)
			}
			for kind, want := range tc.attempts {
				if got := reg.CounterValue("frappe_crawl_attempts_total", kind); got != want {
					t.Errorf("%s attempts = %d, want %d", kind, got, want)
				}
			}
		})
	}
}

// feedLimits records the feed limit of every Node call on its Graph; it
// is not safe for concurrent use.
type feedLimits struct {
	Graph
	limits []int
}

func (g *feedLimits) Node(ctx context.Context, id string, feedLimit int) (graphapi.Node, error) {
	g.limits = append(g.limits, feedLimit)
	return g.Graph.Node(ctx, id, feedLimit)
}

// TestFeedLimit: an on-demand crawl's node read asks the Graph API for
// one post, and a crawl with WholeFeed for the whole feed, so a 3-post
// app's Result holds 1 post and 3 posts respectively.
func TestFeedLimit(t *testing.T) {
	p := fbplatform.New(10)
	if err := p.Register(&fbplatform.App{
		ID: "1", Name: "Chatty",
		ProfileFeed: []fbplatform.ProfilePost{{Message: "a"}, {Message: "b"}, {Message: "c"}},
		Truth:       fbplatform.Truth{HackerID: -1},
	}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		wholeFeed bool
		limit     int
		posts     int
	}{{false, 1, 1}, {true, 0, 3}} {
		g := &feedLimits{Graph: graphapi.Local{Platform: p}}
		c, err := New(Config{Graph: g, WholeFeed: tc.wholeFeed, Telemetry: telemetry.New()})
		if err != nil {
			t.Fatal(err)
		}
		r := c.CrawlApp(context.Background(), "1")
		if len(g.limits) != 1 || g.limits[0] != tc.limit {
			t.Errorf("WholeFeed %v: Node feed limits %v, want [%d]", tc.wholeFeed, g.limits, tc.limit)
		}
		if r.FeedErr != nil || len(r.Feed) != tc.posts || r.Feed[0].Message != "a" {
			t.Errorf("WholeFeed %v: feed %+v, %v; want the first %d of 3 posts", tc.wholeFeed, r.Feed, r.FeedErr, tc.posts)
		}
	}
}

// failingNode is a Graph whose node read fails with err.
type failingNode struct {
	Graph
	err error
}

func (g failingNode) Node(context.Context, string, int) (graphapi.Node, error) {
	return graphapi.Node{}, g.err
}

// TestFeedSharesNodeRead: the feed comes with the node read. A failed
// read fails the feed with the same error, and the install is still
// read; after a good read, the Flakiness oracle's KindFeed verdict
// decides whether its posts count. Either way the feed makes no fetch of
// its own.
func TestFeedSharesNodeRead(t *testing.T) {
	p, _, done := testStack(t)
	defer done()
	outage := errors.New("graph node read failed")
	for _, tc := range []struct {
		name      string
		graph     Graph
		flakiness func(string, Kind) bool
		feedErr   error
		outcome   string
	}{
		{name: "failed read", graph: failingNode{Graph: graphapi.Local{Platform: p}, err: outage}, feedErr: outage, outcome: "frappe_crawl_failures_total"},
		{name: "feed not crawlable", graph: graphapi.Local{Platform: p}, flakiness: func(_ string, k Kind) bool { return k != KindFeed },
			feedErr: ErrNotCrawlable, outcome: "frappe_crawl_not_crawlable_total"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.New()
			c, err := New(Config{Graph: tc.graph, Flakiness: tc.flakiness, Telemetry: reg})
			if err != nil {
				t.Fatal(err)
			}
			r := c.CrawlApp(context.Background(), "1")
			if !errors.Is(r.FeedErr, tc.feedErr) || r.Feed != nil {
				t.Errorf("feed %+v, %v; want none and %v", r.Feed, r.FeedErr, tc.feedErr)
			}
			if r.InstallErr != nil || len(r.Install.Permissions) != 2 {
				t.Errorf("install %+v, %v; want it read", r.Install, r.InstallErr)
			}
			if got := reg.CounterValue(tc.outcome, "feed"); got != 1 {
				t.Errorf("%s{feed} = %d, want 1", tc.outcome, got)
			}
			if got := reg.CounterValue("frappe_crawl_attempts_total", "feed"); got != 0 {
				t.Errorf("feed attempts = %d, want 0", got)
			}
		})
	}
}
