// Package datasets assembles the paper's datasets (Table 1) from a
// synthetic world:
//
//	D-Total       all apps observed posting
//	D-Sample      MPK-flagged malicious apps (after whitelisting) plus an
//	              equal number of benign apps (Social Bakers-vetted, topped
//	              up with the highest-volume unflagged apps)
//	D-Summary     D-Sample apps whose Open Graph summary crawl succeeded
//	D-Inst        D-Sample apps whose install-permission crawl succeeded
//	D-ProfileFeed D-Sample apps whose profile-feed crawl succeeded
//	D-Complete    the intersection of the three
//
// The crawls run at the world's crawl month, after Facebook has deleted
// a large share of the malicious apps — which is exactly why D-Summary
// holds summaries for only ~40% of D-Sample's malicious apps.
package datasets

import (
	"context"
	"fmt"
	"sort"
	"time"

	"frappe/internal/crawler"
	"frappe/internal/graphapi"
	"frappe/internal/mypagekeeper"
	"frappe/internal/synth"
	"frappe/internal/telemetry"
)

// Label is the D-Sample ground-truth class of an app.
type Label int

const (
	// LabelBenign marks D-Sample benign apps.
	LabelBenign Label = iota
	// LabelMalicious marks D-Sample malicious apps.
	LabelMalicious
)

// String names the label.
func (l Label) String() string {
	if l == LabelMalicious {
		return "malicious"
	}
	return "benign"
}

// Datasets is the assembled corpus.
type Datasets struct {
	// DTotal is every app observed posting, sorted by ID.
	DTotal []string

	// Flagged is the raw MPK heuristic output (apps with >= 1 flagged
	// post), before whitelisting.
	Flagged []string
	// Whitelisted are flagged apps cleared as popular/vetted (§2.3 —
	// mostly piggybacking victims like 'Facebook for Android').
	Whitelisted []string

	// Malicious and Benign form D-Sample.
	Malicious []string
	Benign    []string

	// Crawl holds the crawl result for every D-Sample app.
	Crawl map[string]*crawler.Result

	// Stats is MyPageKeeper's per-app aggregation for all observed apps.
	Stats map[string]mypagekeeper.AppStats
}

// Labels returns the D-Sample label map.
func (d *Datasets) Labels() map[string]Label {
	out := make(map[string]Label, len(d.Malicious)+len(d.Benign))
	for _, id := range d.Malicious {
		out[id] = LabelMalicious
	}
	for _, id := range d.Benign {
		out[id] = LabelBenign
	}
	return out
}

// inSummary reports whether the app's summary crawl succeeded.
func (d *Datasets) inSummary(id string) bool {
	r, ok := d.Crawl[id]
	return ok && r.SummaryErr == nil
}

// inInst reports whether the app's permission crawl succeeded.
func (d *Datasets) inInst(id string) bool {
	r, ok := d.Crawl[id]
	return ok && r.InstallErr == nil
}

// inFeed reports whether the app's profile-feed crawl succeeded.
func (d *Datasets) inFeed(id string) bool {
	r, ok := d.Crawl[id]
	return ok && r.FeedErr == nil
}

func (d *Datasets) filter(ids []string, keep func(string) bool) []string {
	var out []string
	for _, id := range ids {
		if keep(id) {
			out = append(out, id)
		}
	}
	return out
}

// DSummary returns the benign and malicious halves of D-Summary.
func (d *Datasets) DSummary() (benign, malicious []string) {
	return d.filter(d.Benign, d.inSummary), d.filter(d.Malicious, d.inSummary)
}

// DInst returns the benign and malicious halves of D-Inst.
func (d *Datasets) DInst() (benign, malicious []string) {
	return d.filter(d.Benign, d.inInst), d.filter(d.Malicious, d.inInst)
}

// DProfileFeed returns the benign and malicious halves of D-ProfileFeed.
func (d *Datasets) DProfileFeed() (benign, malicious []string) {
	return d.filter(d.Benign, d.inFeed), d.filter(d.Malicious, d.inFeed)
}

// DComplete returns the benign and malicious halves of D-Complete: apps
// with all three crawls successful.
func (d *Datasets) DComplete() (benign, malicious []string) {
	all := func(id string) bool { return d.inSummary(id) && d.inInst(id) && d.inFeed(id) }
	return d.filter(d.Benign, all), d.filter(d.Malicious, all)
}

// Builder constructs Datasets from a world.
type Builder struct {
	World *synth.World
	// Workers is the crawl parallelism (default 16).
	Workers int
	// Telemetry receives dataset-build stage timings and crawl metrics;
	// nil means the process default registry.
	Telemetry *telemetry.Registry
}

func (b *Builder) registry() *telemetry.Registry {
	if b.Telemetry != nil {
		return b.Telemetry
	}
	return telemetry.Default()
}

// stageTimer records per-stage wall clock under
// frappe_dataset_stage_seconds{stage}; the "total" stage spans Build.
func (b *Builder) stageTimer() func(stage string, start time.Time) {
	stages := b.registry().Gauge("frappe_dataset_stage_seconds",
		"Wall-clock seconds of the last dataset-build stage run.", "stage")
	return func(stage string, start time.Time) {
		stages.With(stage).Set(time.Since(start).Seconds())
	}
}

// Selection is the dataset membership decided before any crawling: the
// paper's §2.3 flagging, whitelisting and benign-side sampling. It is the
// artifact boundary between the "datasets" and "crawl" stages of the
// experiment DAG (internal/experiments, cmd/frappelab).
type Selection struct {
	// DTotal is every app observed posting, sorted by ID.
	DTotal []string
	// Flagged / Whitelisted / Malicious / Benign follow the Datasets
	// fields of the same names.
	Flagged     []string
	Whitelisted []string
	Malicious   []string
	Benign      []string
	// Stats is MyPageKeeper's per-app aggregation for all observed apps.
	Stats map[string]mypagekeeper.AppStats
}

// Build assembles the corpus. It advances the world clock to the crawl
// month first, so deletions up to that point are in effect.
func (b *Builder) Build(ctx context.Context) (*Datasets, error) {
	stage := b.stageTimer()
	buildStart := time.Now()
	defer func() { stage("total", buildStart) }()

	sel, err := b.Select(ctx)
	if err != nil {
		return nil, err
	}
	return b.CrawlSample(ctx, sel)
}

// Select runs the pre-crawl half of Build: advance the clock to the crawl
// month, aggregate monitor stats, flag, whitelist and pick the benign side.
func (b *Builder) Select(ctx context.Context) (*Selection, error) {
	stage := b.stageTimer()
	w := b.World
	w.AdvanceTo(w.Config.CrawlMonth)

	d := &Datasets{Stats: w.Monitor.Apps()}
	for id := range d.Stats {
		d.DTotal = append(d.DTotal, id)
	}
	sort.Strings(d.DTotal)

	// Step 1: the MPK ground-truth heuristic — any flagged post marks the
	// app (§2.3).
	start := time.Now()
	for _, id := range d.DTotal {
		if d.Stats[id].FlaggedPosts > 0 {
			d.Flagged = append(d.Flagged, id)
		}
	}
	stage("flag", start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Step 2: whitelisting. Popular, Social Bakers-vetted apps that got
	// flagged are victims of piggybacking, not scams.
	start = time.Now()
	for _, id := range d.Flagged {
		if _, err := w.SocialBakers.Rating(id); err == nil {
			d.Whitelisted = append(d.Whitelisted, id)
		} else {
			d.Malicious = append(d.Malicious, id)
		}
	}
	stage("whitelist", start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Step 3: benign selection — vetted, never-flagged apps first, then
	// the highest-volume unflagged apps to reach parity with malicious.
	start = time.Now()
	d.Benign = b.selectBenign(d)
	stage("select_benign", start)

	return &Selection{
		DTotal:      d.DTotal,
		Flagged:     d.Flagged,
		Whitelisted: d.Whitelisted,
		Malicious:   d.Malicious,
		Benign:      d.Benign,
		Stats:       d.Stats,
	}, nil
}

// CrawlSample runs the post-selection half of Build: crawl D-Sample and
// assemble the Datasets. The clock advance is idempotent — it matters when
// the selection was rehydrated from a cached artifact against a freshly
// generated world still sitting at month zero.
func (b *Builder) CrawlSample(ctx context.Context, sel *Selection) (*Datasets, error) {
	stage := b.stageTimer()
	w := b.World
	w.AdvanceTo(w.Config.CrawlMonth)

	d := &Datasets{
		DTotal:      sel.DTotal,
		Flagged:     sel.Flagged,
		Whitelisted: sel.Whitelisted,
		Malicious:   sel.Malicious,
		Benign:      sel.Benign,
		Stats:       sel.Stats,
	}
	start := time.Now()
	sample := append(append([]string(nil), d.Malicious...), d.Benign...)
	results, err := b.CrawlAll(ctx, sample)
	stage("crawl", start)
	if err != nil {
		return nil, err
	}
	d.Crawl = results
	return d, nil
}

// selectBenign applies the §2.3 benign-side criteria. Whitelisted apps
// stay eligible: the paper's D-Sample benign side is headed by FarmVille
// and Facebook for iPhone, both of which had been flagged via piggybacked
// posts and then cleared.
func (b *Builder) selectBenign(d *Datasets) []string {
	w := b.World
	flagged := make(map[string]bool, len(d.Malicious))
	for _, id := range d.Malicious {
		flagged[id] = true
	}
	type cand struct {
		id     string
		stars  float64
		vetted bool
		posts  int
	}
	var cands []cand
	for _, id := range d.DTotal {
		if flagged[id] {
			continue
		}
		c := cand{id: id, posts: d.Stats[id].Posts}
		if r, err := w.SocialBakers.Rating(id); err == nil {
			c.vetted = true
			c.stars = r.Stars
		}
		cands = append(cands, c)
	}
	// Vetted apps first ("social marketing success" is popularity-driven),
	// then the rest by posting volume.
	sort.Slice(cands, func(i, j int) bool {
		a, bb := cands[i], cands[j]
		if a.vetted != bb.vetted {
			return a.vetted
		}
		if a.posts != bb.posts {
			return a.posts > bb.posts
		}
		if a.stars != bb.stars {
			return a.stars > bb.stars
		}
		return a.id < bb.id
	})
	n := len(d.Malicious)
	if n > len(cands) {
		n = len(cands)
	}
	out := make([]string, 0, n)
	for _, c := range cands[:n] {
		out = append(out, c.id)
	}
	sort.Strings(out)
	return out
}

// CrawlAll fetches features for arbitrary app IDs in process, through the
// crawler /check runs over HTTP, against the world's platform and WOT at
// its current month. The D-Sample crawl and the §5.3 sweep over every
// untrained app use it. Unlike /check, it reads each app's whole profile
// feed: Fig 9 plots post counts, and frappegen and the lab store record
// them.
func (b *Builder) CrawlAll(ctx context.Context, ids []string) (map[string]*crawler.Result, error) {
	w := b.World
	workers := b.Workers
	if workers <= 0 {
		workers = 16
	}
	c, err := crawler.New(crawler.Config{
		Graph:     graphapi.Local{Platform: w.Platform},
		WOT:       w.WOT,
		Workers:   workers,
		WholeFeed: true,
		Flakiness: func(id string, kind crawler.Kind) bool {
			switch kind {
			case crawler.KindInstall:
				return w.InstallCrawlable(id)
			case crawler.KindFeed:
				return w.FeedCrawlable(id)
			default:
				return true
			}
		},
		Telemetry: b.registry(),
	})
	if err != nil {
		return nil, fmt.Errorf("datasets: %w", err)
	}
	return c.Crawl(ctx, ids)
}

// Table1Row is one line of the paper's Table 1.
type Table1Row struct {
	Name      string
	Benign    int
	Malicious int
}

// Table1 reproduces the dataset-summary table.
func (d *Datasets) Table1() []Table1Row {
	sb, sm := d.DSummary()
	ib, im := d.DInst()
	fb, fm := d.DProfileFeed()
	cb, cm := d.DComplete()
	return []Table1Row{
		{Name: "D-Total", Benign: -1, Malicious: -1}, // reported as a single count
		{Name: "D-Sample", Benign: len(d.Benign), Malicious: len(d.Malicious)},
		{Name: "D-Summary", Benign: len(sb), Malicious: len(sm)},
		{Name: "D-Inst", Benign: len(ib), Malicious: len(im)},
		{Name: "D-ProfileFeed", Benign: len(fb), Malicious: len(fm)},
		{Name: "D-Complete", Benign: len(cb), Malicious: len(cm)},
	}
}
