package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"frappe"
	"frappe/internal/cluster"
	"frappe/internal/crawler"
	"frappe/internal/graphapi"
	"frappe/internal/httpx"
	"frappe/internal/stack"
	"frappe/internal/telemetry"
	"frappe/internal/tracing"
	"frappe/internal/wot"
)

// The two /check workloads. Both drive the watchdog from this process over
// 2 keep-alive connections, closed loop: each connection sends its next
// request only when the last one has answered.
const (
	// checkScale sizes the world both check workloads serve.
	checkScale = 0.05
	// connections is the closed-loop client count (the host has 2 CPUs).
	connections = 2
	// roundLen is the unit of work a run attempts whole: a run stops at the
	// first round boundary after --seconds.
	roundLen = 512
	// hotPoolSize is how many of the world's most popular live apps
	// check_hot's traffic covers.
	hotPoolSize = 300
	hotReplicas = 3
	// hotTTL outlives any run, so every measured check_hot request is a
	// verdict-cache hit.
	hotTTL = time.Hour
	// missWarmup requests precede check_miss's measured phase, so
	// connections and lazy state are set up before timing starts.
	missWarmup = 256
	// accuracyFloor bounds served-verdict accuracy against the world's
	// ground truth on live apps.
	accuracyFloor = 0.95
	// probeApps is how many apps the traced run's direct-call probes take.
	probeApps = 300
	// tracingPairs pairs of passes, tracingPass each, one with the
	// program's request tracing off and one with it on, measure what that
	// tracing costs.
	tracingPairs = 6
	tracingPass  = time.Second
)

// serving is the set-up both check workloads share: a world, a Lite
// classifier trained on its labelled sample, and the Graph-API and WOT
// simulators mounted on loopback. The world is the paper-seeded one on
// every run: it stands for the platform, and the workload seed picks the
// traffic over it (which apps, in which order), so set-up does the same
// work on every run.
type serving struct {
	w        *frappe.World
	clf      *frappe.Classifier
	graphURL string
	wotURL   string
	upstream *stack.ReplicaSet
}

func setupServing(tr *tracer) (*serving, error) {
	w := frappe.GenerateWorld(frappe.DefaultConfig(checkScale))
	d, err := frappe.BuildDatasets(context.Background(), w)
	if err != nil {
		return nil, fmt.Errorf("building datasets: %w", err)
	}
	records, labels := frappe.LabeledSample(d)
	clf, err := frappe.Train(records, labels, frappe.Options{Features: frappe.LiteFeatures(), Seed: 2})
	if err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	simulators := []http.Handler{
		tr.wrap(graphLayer, telemetry.Middleware(nil, "graph", graphapi.NewServer(w.Platform))),
		tr.wrap(constLayer("wot.score"), telemetry.Middleware(nil, "wot", w.WOT)),
	}
	upstream, err := stack.StartReplicas([]string{"graph", "wot"},
		func(i int, _ string) http.Handler { return simulators[i] })
	if err != nil {
		return nil, err
	}
	return &serving{w: w, clf: clf, graphURL: upstream.URL(0), wotURL: upstream.URL(1), upstream: upstream}, nil
}

// mount serves h on a loopback port; the caller closes the set.
func mount(id string, h http.Handler) (*stack.ReplicaSet, error) {
	return stack.StartReplicas([]string{id}, func(int, string) http.Handler { return h })
}

// graphLayer names the Graph-API surface a request hits; the install
// landing page is the second hop of one install fetch.
func graphLayer(r *http.Request) string {
	p := strings.Trim(r.URL.Path, "/")
	switch {
	case p == "apps/application.php":
		return "graphapi.install"
	case p == "install":
		return "graphapi.install_landing"
	case strings.HasSuffix(p, "/feed"):
		return "graphapi.feed"
	case p != "" && !strings.Contains(p, "/"):
		return "graphapi.summary"
	}
	return ""
}

func constLayer(name string) func(*http.Request) string {
	return func(*http.Request) string { return name }
}

// checkLayer times only /check requests (not health probes or scrapes).
func checkLayer(name string) func(*http.Request) string {
	return func(r *http.Request) string {
		if r.URL.Path == "/check" {
			return name
		}
		return ""
	}
}

// answer is what the client learned from one /check response.
type answer struct {
	status    int
	malicious bool
	score     float64
	deleted   bool
	member    string // X-Cluster-Member, behind the front door
}

func sameAnswer(a, b answer) bool {
	return a.status == b.status && a.malicious == b.malicious && a.deleted == b.deleted &&
		math.Float64bits(a.score) == math.Float64bits(b.score)
}

// load is the outcome of one closed-loop pass.
type load struct {
	lat       []time.Duration // every request's latency, sorted
	attempted int64
	failed    int64
	verdicts  int64
	cached    int64
	first     map[string]answer
	// inconsistent names apps that got two different answers.
	inconsistent map[string]bool
	members      map[string]int64
	phase        phase
}

func newLoad() *load {
	return &load{first: make(map[string]answer), inconsistent: make(map[string]bool),
		members: make(map[string]int64)}
}

// merge folds p into l.
func (l *load) merge(p *load) {
	l.lat = append(l.lat, p.lat...)
	l.attempted += p.attempted
	l.failed += p.failed
	l.verdicts += p.verdicts
	l.cached += p.cached
	for id, a := range p.first {
		if prev, seen := l.first[id]; !seen {
			l.first[id] = a
		} else if !sameAnswer(prev, a) {
			l.inconsistent[id] = true
		}
	}
	for id := range p.inconsistent {
		l.inconsistent[id] = true
	}
	for m, n := range p.members {
		l.members[m] += n
	}
}

// drive sends seq(0), seq(1), ... to base's /check from `connections`
// closed-loop clients. With total > 0 it sends exactly total requests;
// otherwise it runs for length and finishes the round under way. Every
// response is decoded and compared with the first answer for its app.
func drive(base string, seq func(i int64) string, length time.Duration, total int64, seed int64) *load {
	transport := &http.Transport{MaxIdleConnsPerHost: connections, MaxConnsPerHost: connections,
		DisableCompression: true}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}

	var (
		mu   sync.Mutex
		next int64
		stop int64 = total
	)
	if total <= 0 {
		stop = -1
	}
	start := sampleRuntime()
	deadline := start.wall.Add(length)
	// take hands out request indices; the deadline is honoured only at a
	// round boundary, so a timed pass always attempts whole rounds.
	take := func() (int64, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stop < 0 && next%roundLen == 0 && time.Now().After(deadline) {
			stop = next
		}
		if stop >= 0 && next >= stop {
			return 0, false
		}
		i := next
		next++
		return i, true
	}

	parts := make([]*load, connections)
	var wg sync.WaitGroup
	for c := range parts {
		part := newLoad()
		parts[c] = part
		wg.Add(1)
		go func() {
			defer wg.Done()
			var body bytes.Buffer
			for {
				i, ok := take()
				if !ok {
					return
				}
				id := seq(i)
				part.attempted++
				req, err := http.NewRequest(http.MethodGet, base+"/check?app="+url.QueryEscape(id), nil)
				if err != nil {
					part.failed++
					continue
				}
				req.Header.Set("traceparent", traceparent(seed, i))
				t0 := time.Now()
				resp, err := client.Do(req)
				if err != nil {
					part.lat = append(part.lat, time.Since(t0))
					part.failed++
					continue
				}
				body.Reset()
				_, err = body.ReadFrom(resp.Body)
				resp.Body.Close()
				part.lat = append(part.lat, time.Since(t0))
				if err != nil || (resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound) {
					part.failed++
					continue
				}
				var a struct {
					Malicious bool    `json:"malicious"`
					Score     float64 `json:"score"`
					Deleted   bool    `json:"deleted"`
					Cached    bool    `json:"cached"`
				}
				if err := json.Unmarshal(body.Bytes(), &a); err != nil {
					part.failed++
					continue
				}
				part.verdicts++
				if a.Cached {
					part.cached++
				}
				got := answer{status: resp.StatusCode, malicious: a.Malicious, score: a.Score,
					deleted: a.Deleted, member: resp.Header.Get("X-Cluster-Member")}
				if got.member != "" {
					part.members[got.member]++
				}
				if prev, seen := part.first[id]; !seen {
					part.first[id] = got
				} else if !sameAnswer(prev, got) {
					part.inconsistent[id] = true
				}
			}
		}()
	}
	wg.Wait()
	out := newLoad()
	out.phase = since(start)
	for _, p := range parts {
		out.merge(p)
	}
	sortDurations(out.lat)
	return out
}

// traceparent mints the W3C header for request i, so every hop of one
// request carries the same trace ID.
func traceparent(seed int64, i int64) string {
	return fmt.Sprintf("00-%016x%016x-%016x-01", uint64(seed)|1<<63, uint64(i)+1, uint64(i)+1)
}

// allApps lists every app of the world, live and deleted, in seeded order.
func allApps(s *serving, seed int64) []string {
	ids := append(append([]string(nil), s.w.BenignIDs...), s.w.MaliciousIDs...)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return ids
}

// hotPool ranks the world's live apps by popularity, its flagship apps
// (World.PopularIDs) first and the rest by last-month MAU, and keeps the
// top hotPoolSize with their last-month MAU.
func hotPool(w *frappe.World) (pool []string, mau []float64) {
	flagship := make(map[string]bool, len(w.PopularIDs))
	for _, id := range w.PopularIDs {
		flagship[id] = true
	}
	type ranked struct {
		id       string
		flagship bool
		mau      int
	}
	var live []ranked
	for _, id := range append(append([]string(nil), w.BenignIDs...), w.MaliciousIDs...) {
		app, err := w.Platform.Lookup(id)
		if err != nil || len(app.MAU) == 0 {
			continue
		}
		live = append(live, ranked{id, flagship[id], app.MAU[len(app.MAU)-1]})
	}
	sort.Slice(live, func(i, j int) bool {
		a, b := live[i], live[j]
		if a.flagship != b.flagship {
			return a.flagship
		}
		if a.mau != b.mau {
			return a.mau > b.mau
		}
		return a.id < b.id
	})
	for _, r := range live[:min(len(live), hotPoolSize)] {
		pool = append(pool, r.id)
		mau = append(mau, float64(r.mau))
	}
	return pool, mau
}

// hotRound draws one round of requests over the pool, each app in
// proportion to its last-month MAU; check_hot repeats it. The skew is the
// world's own: the generator draws MAU from Pareto laws, so an app's
// share of requests falls with its popularity rank as a power law.
func hotRound(pool []string, mau []float64, seed int64) []string {
	cum := make([]float64, len(mau))
	var total float64
	for i, m := range mau {
		total += m
		cum[i] = total
	}
	rng := rand.New(rand.NewSource(seed ^ 0x2b992ddfa23249d6))
	round := make([]string, roundLen)
	for i := range round {
		round[i] = pool[sort.SearchFloat64s(cum, rng.Float64()*total)]
	}
	return round
}

// zipfFit fits MAU ∝ rank^-s over the pool, ranked by MAU, by least
// squares in log-log space: s is the Zipf exponent of the draws hotRound
// makes. It also returns the pool's MAU range.
func zipfFit(mau []float64) (s, lo, hi float64) {
	sorted := append([]float64(nil), mau...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	var n, sx, sy, sxx, sxy float64
	for i, m := range sorted {
		if m <= 0 {
			continue
		}
		x, y := math.Log(float64(i+1)), math.Log(m)
		n, sx, sy, sxx, sxy = n+1, sx+x, sy+y, sxx+x*x, sxy+x*y
	}
	return -ratio(n*sxy-sx*sy, n*sxx-sx*sx), sorted[len(sorted)-1], sorted[0]
}

// e2eServing turns a measured pass into the end-to-end metrics.
func e2eServing(l *load, setup time.Duration, heapMB float64) map[string]metric {
	return map[string]metric{
		"setup_s":       {setup.Seconds(), "s"},
		"ops_per_s":     {float64(l.verdicts) / l.phase.wall.Seconds(), "1/s"},
		"wait_p50_ms":   {ms(percentile(l.lat, 0.50)), "ms"},
		"wait_p95_ms":   {ms(percentile(l.lat, 0.95)), "ms"},
		"cpu_us_per_op": {perOp(l.phase.processCPU, l.verdicts, time.Microsecond), "us"},
		"live_heap_mb":  {heapMB, "MB"},
	}
}

// verifyServed checks every answer of the pass against the oracle.
func verifyServed(rep *report, s *serving, l *load) {
	for id := range l.inconsistent {
		rep.fail("app %s got different answers across requests", id)
	}
	served := make(map[string]servedVerdict, len(l.first))
	for id, a := range l.first {
		served[id] = servedVerdict{Status: a.status, Malicious: a.malicious, Score: a.score, Deleted: a.deleted}
	}
	problems, acc := checkVerdicts(served, func(id string) oracleVerdict {
		return oracleAssess(s.w, s.clf, id)
	}, s.w.IsMalicious, accuracyFloor)
	rep.problems = append(rep.problems, problems...)
	rep.note("oracle: %d apps answered, accuracy %d/%d on live apps", len(served), acc.correct, acc.live)
}

// tracingCost is the CPU per verdict that program request tracing adds:
// the median difference over tracingPairs pairs of passes with it off and
// on, the benchmark's spans paused. Each pair runs in the other order from
// the one before, so the host's drift within the run does not read as
// tracing cost. The pairs are noted beside the result.
func tracingCost(rep *report, base string, seq func(int64) string, seed int64) float64 {
	t := tracing.Default()
	defer t.SetEnabled(true)
	cpu := func(enabled bool) float64 {
		t.SetEnabled(enabled)
		l := drive(base, seq, tracingPass, 0, seed)
		return perOp(l.phase.processCPU, l.verdicts, time.Microsecond)
	}
	diffs := make([]float64, tracingPairs)
	var pairs []string
	for i := range diffs {
		var off, on float64
		if i%2 == 0 {
			off = cpu(false)
			on = cpu(true)
		} else {
			on = cpu(true)
			off = cpu(false)
		}
		diffs[i] = on - off
		pairs = append(pairs, fmt.Sprintf("%.1f/%.1f", off, on))
	}
	rep.note("tracing.cost_us pairs (off/on µs per verdict, in run order): %s", strings.Join(pairs, " "))
	return median(diffs)
}

// crawlAttempts is the program's own count of upstream fetches: crawl
// attempts on the three Graph-API surfaces plus logical WOT lookups.
func crawlAttempts() int64 {
	reg := telemetry.Default()
	var n uint64
	for _, kind := range []string{"summary", "feed", "install"} {
		n += reg.CounterValue("frappe_crawl_attempts_total", kind)
	}
	for _, outcome := range []string{"ok", "exhausted", "error", "breaker_open"} {
		n += reg.CounterValue("frappe_httpx_requests_total", "wot", outcome)
	}
	return int64(n)
}

func runCheckHot(cfg runConfig) (*report, error) {
	tr := newTracer(cfg.trace)
	s, err := setupServing(tr)
	if err != nil {
		return nil, err
	}
	defer s.upstream.Close()

	ids := make([]string, hotReplicas)
	for i := range ids {
		ids[i] = fmt.Sprintf("w%d", i+1)
	}
	wds := make([]*frappe.Watchdog, hotReplicas)
	var buildErr error
	rs, err := stack.StartReplicas(ids, func(i int, id string) http.Handler {
		wd, err := frappe.NewWatchdogWith(s.clf, frappe.WatchdogConfig{
			GraphURL: s.graphURL, WOTURL: s.wotURL, VerdictTTL: hotTTL})
		if err != nil {
			buildErr = err
			return http.NotFoundHandler()
		}
		wds[i] = wd
		return tr.wrap(checkLayer("frappe.handler"),
			frappe.NewWatchdogHandler(wd, frappe.HandlerConfig{Timeout: 10 * time.Second, MemberID: id}))
	})
	if err != nil {
		return nil, err
	}
	defer rs.Close()
	if buildErr != nil {
		return nil, buildErr
	}
	members := make([]cluster.Member, hotReplicas)
	memberIndex := make(map[string]int, hotReplicas)
	for i := range members {
		members[i] = cluster.Member{ID: rs.ID(i), URL: rs.URL(i)}
		memberIndex[rs.ID(i)] = i
	}
	c, err := cluster.New(cluster.Config{Members: members})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.Start(ctx)
	if !c.WaitHealthy(ctx, hotReplicas, 10*time.Second) {
		return nil, fmt.Errorf("front door: replicas never became healthy")
	}
	lb, err := mount("frappelb", tr.wrap(checkLayer("cluster.frontdoor"),
		telemetry.Middleware(nil, "frappelb", c.Handler())))
	if err != nil {
		return nil, err
	}
	defer lb.Close()
	lbURL := lb.URL(0)

	pool, mau := hotPool(s.w)
	round := hotRound(pool, mau, cfg.seed)
	seq := func(i int64) string { return round[i%roundLen] }
	// Warm-up: one request per pool app through the front door fills the
	// owning replica's verdict cache.
	warm := drive(lbURL, func(i int64) string { return pool[i] }, 0, int64(len(pool)), cfg.seed^0x5eed)
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d requests failed", warm.failed, warm.attempted)
	}
	setup := cfg.setupTime()

	hitsBefore := telemetry.Default().CounterValue("frappe_verdict_cache_total", "hit")
	tr.reset()
	l := drive(lbURL, seq, time.Duration(cfg.seconds)*time.Second, 0, cfg.seed)
	tr.pause()
	heap := liveHeapMB()
	hits := telemetry.Default().CounterValue("frappe_verdict_cache_total", "hit") - hitsBefore

	rep := &report{attempted: l.attempted, failed: l.failed, e2e: e2eServing(l, setup, heap)}
	all := newLoad()
	all.merge(warm)
	all.merge(l)
	verifyServed(rep, s, all)
	rep.note("check_hot: %d verdicts, %d cached, p99 %.3f ms, members %v", l.verdicts, l.cached,
		ms(percentile(l.lat, 0.99)), l.members)
	exponent, lo, hi := zipfFit(mau)
	distinct := make(map[string]bool, len(pool))
	for _, id := range round {
		distinct[id] = true
	}
	flagship := make(map[string]bool, len(s.w.PopularIDs))
	for _, id := range s.w.PopularIDs {
		flagship[id] = true
	}
	var flagships, malicious int
	for _, id := range pool {
		if flagship[id] {
			flagships++
		}
		if s.w.IsMalicious(id) {
			malicious++
		}
	}
	rep.note("check_hot pool: %d apps (%d flagship, %d malicious), last-month MAU %.0f to %.0f, "+
		"Zipf exponent %.2f; %d distinct apps in the round", len(pool), flagships, malicious, lo, hi,
		exponent, len(distinct))
	if !cfg.trace {
		return rep, nil
	}

	stats, _ := tr.stats()
	front, handler := statOf(stats, "cluster.frontdoor"), statOf(stats, "frappe.handler")
	checkTotals(rep, stats, l, hits)
	// Direct calls: Watchdog.Assess on each app's owning replica is a hit.
	tr.resume()
	for _, id := range pool[:min(len(pool), probeApps)] {
		wd := wds[memberIndex[warm.first[id].member]]
		tr.timed("frappe.assess_hit", func() { wd.Assess(context.Background(), id) })
	}
	tr.pause()
	stats, _ = tr.stats()
	assessHit := statOf(stats, "frappe.assess_hit").meanUS()
	var maxShare float64
	for _, n := range l.members {
		maxShare = math.Max(maxShare, ratio(float64(n), float64(l.verdicts)))
	}
	rep.layers = layerTable(map[string]float64{
		"cluster.hop_self_us":        front.meanSelfUS(),
		"cluster.member_share_max":   maxShare,
		"cluster.requests_per_check": ratio(float64(handler.count), float64(l.attempted)),
		"frappe.handler_self_us":     handler.meanUS() - assessHit,
		"frappe.assess_hit_us":       assessHit,
		"frappe.cache_hit_ratio":     ratio(float64(l.cached), float64(l.attempted)),
		"tracing.cost_us":            tracingCost(rep, lbURL, seq, cfg.seed),
		"upstream.fetches_per_check": ratio(float64(upstreamRequests(stats)), float64(l.attempted)),
		"runtime.alloc_bytes_per_op": l.phase.allocBytes / float64(l.attempted),
		"runtime.gc_cpu_fraction":    l.phase.gcFraction,
	})
	return rep, tr.write(cfg.out, fmt.Sprintf("check_hot-seed%d", cfg.seed), rep.layers)
}

// checkTotals compares pairs of totals reached by independent paths over
// the measured pass: the client's counts against the wrappers' and the
// program's own counters.
func checkTotals(rep *report, stats map[string]*layerStat, l *load, cacheHits uint64) {
	if n := statOf(stats, "frappe.handler").count; n != l.attempted {
		rep.fail("replica wrappers counted %d /check requests, the client sent %d", n, l.attempted)
	}
	if summaries, misses := statOf(stats, "graphapi.summary").count, l.verdicts-l.cached; summaries != misses {
		rep.fail("Graph-API wrapper saw %d summary fetches, the client saw %d misses", summaries, misses)
	}
	if uint64(l.cached) != cacheHits {
		rep.fail("client saw %d cached responses, frappe_verdict_cache_total{hit} moved by %d", l.cached, cacheHits)
	}
}

// upstreamRequests counts fetches the simulators served, the install
// landing page being the second hop of an install fetch.
func upstreamRequests(stats map[string]*layerStat) int64 {
	return statOf(stats, "graphapi.summary").count + statOf(stats, "graphapi.feed").count +
		statOf(stats, "graphapi.install").count + statOf(stats, "wot.score").count
}

func runCheckMiss(cfg runConfig) (*report, error) {
	tr := newTracer(cfg.trace)
	s, err := setupServing(tr)
	if err != nil {
		return nil, err
	}
	defer s.upstream.Close()
	wd, err := frappe.NewWatchdogWith(s.clf, frappe.WatchdogConfig{GraphURL: s.graphURL, WOTURL: s.wotURL})
	if err != nil {
		return nil, err
	}
	front, err := mount("watchdog", tr.wrap(checkLayer("frappe.handler"),
		frappe.NewWatchdogHandler(wd, frappe.HandlerConfig{Timeout: 10 * time.Second})))
	if err != nil {
		return nil, err
	}
	defer front.Close()
	base := front.URL(0)
	apps := allApps(s, cfg.seed)
	seq := func(i int64) string { return apps[i%int64(len(apps))] }
	warm := drive(base, func(i int64) string { return apps[len(apps)-1-int(i)] }, 0, missWarmup, cfg.seed^0x5eed)
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d requests failed", warm.failed, warm.attempted)
	}
	setup := cfg.setupTime()

	hitsBefore := telemetry.Default().CounterValue("frappe_verdict_cache_total", "hit")
	fetchesBefore := crawlAttempts()
	tr.reset()
	l := drive(base, seq, time.Duration(cfg.seconds)*time.Second, 0, cfg.seed)
	tr.pause()
	heap := liveHeapMB()
	hits := telemetry.Default().CounterValue("frappe_verdict_cache_total", "hit") - hitsBefore
	fetches := crawlAttempts() - fetchesBefore

	rep := &report{attempted: l.attempted, failed: l.failed, e2e: e2eServing(l, setup, heap)}
	all := newLoad()
	all.merge(warm)
	all.merge(l)
	verifyServed(rep, s, all)
	rep.note("check_miss: %d verdicts over %d apps, p99 %.3f ms", l.verdicts, len(apps), ms(percentile(l.lat, 0.99)))
	if !cfg.trace {
		return rep, nil
	}

	stats, _ := tr.stats()
	handler := statOf(stats, "frappe.handler")
	checkTotals(rep, stats, l, hits)
	simulated := upstreamRequests(stats)

	// Direct calls into the layers under the handler, on the first
	// probeApps apps of the run's order.
	probe := apps[:min(len(apps), probeApps)]
	cr, err := crawler.New(crawler.Config{
		Graph:   &graphapi.Client{BaseURL: s.graphURL, HTTP: httpx.New(httpx.Config{Service: "graph", MaxAttempts: 3})},
		WOT:     &wot.Client{BaseURL: s.wotURL, HTTP: httpx.New(httpx.Config{Service: "wot", MaxAttempts: 3})},
		Workers: 1,
	})
	if err != nil {
		return nil, err
	}
	records := make([]frappe.AppRecord, 0, len(probe))
	for _, id := range probe {
		records = append(records, oracleRecord(s.w, id))
	}
	tr.resume()
	for _, id := range probe {
		tr.timed("frappe.assess_miss", func() { wd.Assess(context.Background(), id) })
		tr.timed("crawler.crawl", func() { cr.Crawl(context.Background(), []string{id}) })
	}
	for pass := 0; pass < 20; pass++ {
		for _, r := range records {
			tr.timed("core.classify", func() { s.clf.Classify(r) })
		}
	}
	tr.pause()
	stats, _ = tr.stats()
	assessMiss := statOf(stats, "frappe.assess_miss").meanUS()
	install := statOf(stats, "graphapi.install")
	landing := statOf(stats, "graphapi.install_landing")
	feed := statOf(stats, "graphapi.feed")
	values := map[string]float64{
		"frappe.handler_self_us":     handler.meanUS() - assessMiss,
		"frappe.assess_miss_us":      assessMiss,
		"frappe.cache_hit_ratio":     ratio(float64(l.cached), float64(l.attempted)),
		"tracing.cost_us":            tracingCost(rep, base, seq, cfg.seed),
		"crawler.crawl_us":           statOf(stats, "crawler.crawl").meanUS(),
		"httpx.attempts_per_fetch":   ratio(float64(simulated), float64(fetches)),
		"graphapi.summary_us":        statOf(stats, "graphapi.summary").meanUS(),
		"graphapi.feed_us":           feed.meanUS(),
		"graphapi.install_us":        perOp(install.total+landing.total, install.count, time.Microsecond),
		"wot.score_us":               statOf(stats, "wot.score").meanUS(),
		"graphapi.feed_bytes":        ratio(float64(feed.bytes), float64(feed.count)),
		"upstream.fetches_per_check": ratio(float64(fetches), float64(l.attempted)),
		"core.classify_us":           statOf(stats, "core.classify").meanUS(),
		"runtime.alloc_bytes_per_op": l.phase.allocBytes / float64(l.attempted),
		"runtime.gc_cpu_fraction":    l.phase.gcFraction,
	}
	// The offline side is measured here too: it has no workload of its
	// own, because its wall-clock figures swung too far between identical
	// runs on a shared 2-CPU host to hold a bound.
	tr.resume()
	if err := measureOffline(cfg, tr, rep, values); err != nil {
		return nil, fmt.Errorf("offline side: %w", err)
	}
	rep.layers = layerTable(values)
	return rep, tr.write(cfg.out, fmt.Sprintf("check_miss-seed%d", cfg.seed), rep.layers)
}
