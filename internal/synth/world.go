// Package synth generates the synthetic world that stands in for the
// paper's proprietary MyPageKeeper dataset: a Facebook-like platform with
// benign developers and AppNet-operating hackers, nine months of posting
// behaviour, bit.ly links with click traffic, WOT domain reputations,
// Social Bakers vetting, indirection websites, app piggybacking, and
// Facebook's own policing (app deletion).
//
// Every generator rate is calibrated against a number the paper reports
// (see Config); the distinguishing statistics of §3, §4, and §6 are then
// *emergent outputs* of the generated world, which the experiment harness
// re-measures the way the paper does.
package synth

import (
	"fmt"
	"sort"

	"frappe/internal/bitly"
	"frappe/internal/fbplatform"
	"frappe/internal/mypagekeeper"
	"frappe/internal/redirector"
	"frappe/internal/socialbakers"
	"frappe/internal/stats"
	"frappe/internal/wal"
	"frappe/internal/wot"
)

// Role is an app's position in its AppNet (Fig. 13).
type Role int

const (
	// RolePromotee apps are promoted by others and host the money pages.
	RolePromotee Role = iota
	// RolePromoter apps post links that promote other apps.
	RolePromoter
	// RoleDual apps both promote and are promoted.
	RoleDual
	// RoleNone marks benign apps and non-colluding malicious apps.
	RoleNone
)

// String returns the role name.
func (r Role) String() string {
	switch r {
	case RolePromotee:
		return "promotee"
	case RolePromoter:
		return "promoter"
	case RoleDual:
		return "dual"
	default:
		return "none"
	}
}

// Hacker is one AppNet operator: a set of apps sharing campaign names,
// hosting domains, indirection sites, and promotion structure.
type Hacker struct {
	ID      int
	AppIDs  []string
	Names   []string // campaign names in use
	Domains []string // hosting domains for landing pages
	// Evasive hackers vary post text and avoid lure keywords.
	Evasive bool
	// Sites are the hacker's indirection websites.
	Sites []*redirector.Site
	// Role maps each app to its collusion role.
	Role map[string]Role
	// DirectTargets lists, per direct-promoter app, the promotee apps it
	// links to (ground truth for the collaboration graph).
	DirectTargets map[string][]string
}

// World is a fully generated synthetic universe plus the services the
// measurement pipeline talks to.
type World struct {
	Config Config

	Platform     *fbplatform.Platform
	Bitly        *bitly.Service
	WOT          *wot.Service
	SocialBakers *socialbakers.Service
	Redirector   *redirector.Service
	Monitor      *mypagekeeper.Monitor

	// ingest is the open queued-ingestion session during the event
	// streaming stages of Generate; nil otherwise. walLog is the
	// write-ahead log under it when Config.WALDir is set.
	ingest *mypagekeeper.Ingester
	walLog *wal.Log

	// WALResumed is the number of events the log in Config.WALDir
	// already held: regeneration re-applies them (the deterministic
	// generator reproduces the identical stream) but does not re-append
	// them, so the log completes without duplicates.
	WALResumed uint64

	Hackers []*Hacker

	// MaliciousIDs / BenignIDs partition all apps by ground truth.
	MaliciousIDs []string
	BenignIDs    []string
	// PopularIDs are the piggybacking victims (most popular benign apps).
	PopularIDs []string

	// TruePosts is the unsampled per-app post volume over the window; the
	// streamed (materialized) volume is capped per app.
	TruePosts map[string]int64
	// PiggybackPosts counts piggybacked (falsely attributed) posts per
	// victim app.
	PiggybackPosts map[string]int64

	// TotalStreamPosts counts every post streamed through the monitor;
	// ManualPosts counts those with no application field.
	TotalStreamPosts int64
	ManualPosts      int64
	// PiggybackRejected counts prompt_feed calls the platform refused
	// under the AuthenticatePromptFeed countermeasure.
	PiggybackRejected int64

	deleteMonth  map[string]int // app ID -> month Facebook removes it (0 = never)
	currentMonth int

	// manualLinkCounts tracks URL occurrences in app-less posts, for the
	// §2.2 flagged-post attribution breakdown.
	manualLinkCounts map[string]int64

	// installCrawlable / feedCrawlable mark apps whose human-oriented
	// flows a crawler can automate (§2.3).
	installCrawlable map[string]bool
	feedCrawlable    map[string]bool
}

// InstallCrawlable reports whether an automated crawler can follow the
// app's install redirection chain (independent of deletion state).
func (w *World) InstallCrawlable(id string) bool { return w.installCrawlable[id] }

// FeedCrawlable reports whether the app's profile feed is crawlable.
func (w *World) FeedCrawlable(id string) bool { return w.feedCrawlable[id] }

// IsMalicious reports the hidden ground truth for an app ID.
func (w *World) IsMalicious(id string) bool {
	app, err := w.Platform.App(id)
	return err == nil && app.Truth.Malicious
}

// DeleteMonthOf returns the month Facebook removes the app (0 = never).
func (w *World) DeleteMonthOf(id string) int { return w.deleteMonth[id] }

// CurrentMonth returns the world clock.
func (w *World) CurrentMonth() int { return w.currentMonth }

// AdvanceTo moves the world clock forward, applying Facebook's deletions
// up to and including month. Moving backwards is a no-op.
func (w *World) AdvanceTo(month int) {
	if month <= w.currentMonth {
		return
	}
	for id, m := range w.deleteMonth {
		if m > 0 && m <= month && m > w.currentMonth {
			// Ignore double-delete errors: the schedule is authoritative.
			_ = w.Platform.Delete(id)
		}
	}
	w.currentMonth = month
}

// HackerOf returns the AppNet operator controlling an app, or nil.
func (w *World) HackerOf(appID string) *Hacker {
	app, err := w.Platform.App(appID)
	if err != nil || app.Truth.HackerID < 0 {
		return nil
	}
	for _, h := range w.Hackers {
		if h.ID == app.Truth.HackerID {
			return h
		}
	}
	return nil
}

// RoleOf returns the collusion role of an app.
func (w *World) RoleOf(appID string) Role {
	h := w.HackerOf(appID)
	if h == nil {
		return RoleNone
	}
	if r, ok := h.Role[appID]; ok {
		return r
	}
	return RoleNone
}

// TopAppsByTruePosts returns the n highest-volume app IDs among ids,
// ordered by descending true post count (Table 2 / Table 9 orderings).
func (w *World) TopAppsByTruePosts(ids []string, n int) []string {
	sorted := append([]string(nil), ids...)
	sort.Slice(sorted, func(i, j int) bool {
		pi, pj := w.TruePosts[sorted[i]], w.TruePosts[sorted[j]]
		if pi != pj {
			return pi > pj
		}
		return sorted[i] < sorted[j]
	})
	if n > len(sorted) {
		n = len(sorted)
	}
	return sorted[:n]
}

// appIDSeq issues deterministic Facebook-looking numeric app IDs.
type appIDSeq struct{ n int64 }

func (s *appIDSeq) next() string {
	s.n++
	return fmt.Sprintf("2%014d", s.n)
}

// newServices wires up the empty service stack for a world.
func newServices(cfg Config) *World {
	w := &World{
		Config:           cfg,
		Platform:         fbplatform.New(cfg.NumUsers()),
		Bitly:            bitly.NewService("http://bit.ly"),
		WOT:              wot.NewService(),
		SocialBakers:     socialbakers.NewService(),
		Redirector:       redirector.NewService(),
		Monitor:          mypagekeeper.New(mypagekeeper.DefaultClassifierConfig()),
		TruePosts:        make(map[string]int64),
		PiggybackPosts:   make(map[string]int64),
		deleteMonth:      make(map[string]int),
		manualLinkCounts: make(map[string]int64),
		installCrawlable: make(map[string]bool),
		feedCrawlable:    make(map[string]bool),
	}
	w.Platform.SetPolicy(fbplatform.Policy{
		EnforceClientID:        cfg.Countermeasures.EnforceClientID,
		AuthenticatePromptFeed: cfg.Countermeasures.AuthenticatePromptFeed,
	})
	w.Monitor.SubscribeRange(0, cfg.NumUsers())
	// MyPageKeeper resolves shortened links before applying blacklists.
	w.Monitor.SetResolver(func(link string) (string, bool) {
		if !w.Bitly.IsShort(link) {
			return "", false
		}
		long, err := w.Bitly.Expand(link)
		if err != nil {
			return "", false
		}
		return long, true
	})
	return w
}

// mustSetWOT panics on invalid generator-internal scores; generation bugs
// should fail loudly.
func (w *World) mustSetWOT(domain string, score int) {
	if err := w.WOT.SetScore(domain, score); err != nil {
		panic(fmt.Sprintf("synth: WOT seed: %v", err))
	}
}

// mustRegister panics on registration failures, which indicate generator
// bugs (duplicate IDs, invalid permissions).
func (w *World) mustRegister(app *fbplatform.App) {
	if err := w.Platform.Register(app); err != nil {
		panic(fmt.Sprintf("synth: register %s: %v", app.ID, err))
	}
}

// observe streams a post into the monitor, maintaining stream counters.
// While a queued-ingestion session is open (the post-streaming stages of
// Generate), posts fan out through the ingester's per-shard queues; the
// results are byte-identical either way.
func (w *World) observe(p fbplatform.Post) {
	w.TotalStreamPosts++
	if p.AppID == "" {
		w.ManualPosts++
	}
	if w.ingest != nil {
		w.ingest.Observe(p)
		return
	}
	w.Monitor.Observe(p)
}

// addBlacklistedURL feeds a URL blacklist entry to the monitor, routed
// through the active ingestion session (if any) so the add stays ordered
// against queued posts.
func (w *World) addBlacklistedURL(url string) {
	if w.ingest != nil {
		w.ingest.AddBlacklistedURL(url)
		return
	}
	w.Monitor.AddBlacklistedURL(url)
}

// beginIngest opens the queued-ingestion session that observe and
// addBlacklistedURL route through. With Config.WALDir set the session is
// durable: every event is appended to the log before it is applied, and
// the session resumes whatever (possibly torn-and-truncated) log the
// directory already holds: the events it holds are applied but not
// appended again, and a log this generation's stream does not begin
// with fails the session instead of being extended.
func (w *World) beginIngest(workers int) {
	cfg := mypagekeeper.IngestConfig{Workers: workers}
	if w.Config.WALDir != "" {
		l, err := wal.Open(w.Config.WALDir, wal.Options{})
		if err != nil {
			panic(fmt.Sprintf("synth: opening ingestion WAL: %v", err))
		}
		w.walLog = l
		cfg.WAL = l
		cfg.Resume = true
		w.WALResumed = l.End()
	}
	w.ingest = w.Monitor.StartIngestWith(cfg)
}

// endIngest drains and closes the session; monitor reads are exact again
// once it returns. With a WAL underneath, the session-end barrier has run
// by then, the "monitor" consumer offset records the applied frontier, and
// the log is closed — readers (watchdogd, the retrainer) reopen it from
// disk.
func (w *World) endIngest() {
	if w.ingest == nil {
		return
	}
	if err := w.ingest.Close(); err != nil {
		panic(fmt.Sprintf("synth: closing ingestion session: %v", err))
	}
	w.ingest = nil
	if w.walLog == nil {
		return
	}
	if err := w.walLog.CommitConsumer("monitor", w.walLog.End()); err != nil {
		panic(fmt.Sprintf("synth: committing monitor offset: %v", err))
	}
	if err := w.walLog.Close(); err != nil {
		panic(fmt.Sprintf("synth: closing ingestion WAL: %v", err))
	}
	w.walLog = nil
}

// pickMonth returns a uniform month in the observation window.
func pickMonth(rng *stats.Rand, months int) int {
	if months <= 1 {
		return 0
	}
	return rng.Intn(months)
}
