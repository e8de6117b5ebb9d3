// Package mypagekeeper simulates MyPageKeeper (§2.2), the Facebook security
// application whose post-granularity classifications are FRAppE's ground
// truth. MyPageKeeper monitors the walls and news feeds of its subscribed
// users, evaluates every URL it sees by combining signals across all posts
// carrying that URL — URL blacklists, spam keywords ('FREE', 'Deal',
// 'Hurry', …), cross-post text similarity, and 'Like'/comment counts — and,
// once a URL is deemed malicious, marks every post containing it as
// malicious.
//
// Two properties of the real system matter for FRAppE and are preserved:
//
//  1. MyPageKeeper is agnostic about the posting application: it flags
//     posts, not apps. The app-granularity ground truth ("an app is
//     malicious if any of its posts was flagged") is derived afterwards.
//  2. Its decisions are imperfect in a measured way: 97% of flagged posts
//     are truly malicious and only 0.005% of benign posts are flagged,
//     which is exactly the label noise FRAppE trains under.
//
// The monitor is lock-striped for stream-scale ingestion: per-URL state
// lives in URL-hash shards, per-app aggregates in app-ID-hash shards, and
// the stream counters are atomics, so concurrent Observe calls on
// different URLs and apps never contend. Snapshot paths (Apps, Stats,
// FlaggedPostCount) merge the shards in sorted order, and the bounded
// per-app samples are keyed by a global stream sequence number, so every
// read-side result is byte-identical to the single-lock monitor for any
// shard count and any ingestion worker count (see DESIGN.md §9).
package mypagekeeper

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"frappe/internal/fbplatform"
	"frappe/internal/wot"
)

// SpamKeywords are the lure words the paper lists as classifier features.
var SpamKeywords = []string{
	"free", "deal", "hurry", "wow", "omg", "win", "gift", "credits",
	"ipad", "iphone", "offer", "prize", "limited", "click",
}

// ClassifierConfig tunes the URL classifier thresholds.
type ClassifierConfig struct {
	// MinPosts is the minimum number of observations of a URL before the
	// heuristic (non-blacklist) path may flag it.
	MinPosts int
	// KeywordRate is the fraction of a URL's posts that must contain spam
	// keywords for the keyword signal to fire.
	KeywordRate float64
	// SimilarityRate is the fraction of a URL's posts whose message matches
	// the campaign's dominant message for the similarity signal to fire.
	SimilarityRate float64
	// MaxAvgLikes: campaigns whose posts accumulate more average Likes than
	// this look organic and are not flagged by the heuristic path.
	MaxAvgLikes float64
}

// DefaultClassifierConfig returns thresholds that reproduce the measured
// precision of the real MyPageKeeper on the synthetic workload.
func DefaultClassifierConfig() ClassifierConfig {
	return ClassifierConfig{
		MinPosts:       3,
		KeywordRate:    0.5,
		SimilarityRate: 0.6,
		MaxAvgLikes:    2.0,
	}
}

// urlStats aggregates every observation of one URL across posts.
type urlStats struct {
	posts        int
	keywordPosts int
	likesTotal   int
	// message histogram, capped: campaign posts repeat a handful of texts.
	messages map[string]int
	flagged  bool
	// external is isExternal(URL), decided once when the URL is first seen.
	external bool
	// target is the URL the blacklists were last checked against (the
	// resolver's expansion, or the URL itself) and domain its domain, so
	// classify parses a URL again only when the resolver's answer changes.
	target, domain string
}

const maxTrackedMessages = 32

// DefaultShards is the shard count New uses. Sixteen stripes keep
// same-stripe collisions rare at the worker counts the pipeline runs with
// while the per-shard maps stay large enough to amortise their overhead.
const DefaultShards = 16

// urlShard stripes the per-URL aggregates: a URL always lives in the shard
// its hash selects, so all order-sensitive per-URL state (the flag point,
// the capped message histogram) is serialised by that shard's mutex alone.
type urlShard struct {
	mu   sync.Mutex
	urls map[string]*urlStats
}

// appShard stripes the per-app aggregates. All app-side state is
// commutative (counters plus sequence-keyed bounded samples), so shard
// placement only matters for contention, never for results.
type appShard struct {
	mu   sync.Mutex
	apps map[string]*appAgg
}

// appAgg is the mutable per-app aggregate behind the AppStats snapshot.
type appAgg struct {
	posts         int
	linkPosts     int
	flaggedPosts  int
	externalLinks int

	links           seqSample
	messages        seqSample
	flaggedMessages seqSample
}

// Monitor is the MyPageKeeper instance: a subscriber set, an online URL
// classifier, and per-application aggregation (the paper's §4.2
// "aggregation-based features" are computed by exactly this kind of
// entity). It is safe for concurrent use, and Observe calls on different
// URLs and applications proceed in parallel.
type Monitor struct {
	cfg ClassifierConfig

	// subscribers is read lock-free on every post; subMu orders writers
	// (see subscribers.go).
	subMu       sync.Mutex
	subscribers atomic.Pointer[subscriberSet]

	// The blacklists are global (checked by every shard's classify path)
	// and mutated rarely; blMu is only ever taken after a URL-shard lock,
	// never the other way round, so the lock order is acyclic.
	blMu      sync.RWMutex
	blacklist map[string]bool
	urlBlack  map[string]bool

	urlShards []urlShard
	appShards []appShard

	posts    atomic.Int64  // posts observed (subscribed walls only)
	appPosts atomic.Int64  // posts with a non-empty application field
	seq      atomic.Uint64 // stream position, assigned on entry to Observe

	// resolve expands shortened URLs before blacklist checks, as the real
	// system resolved bit.ly links. It must be safe for concurrent use.
	resolve atomic.Pointer[func(string) (string, bool)]

	// urlModel, when set, replaces the threshold heuristics with the
	// learned SVM of §2.2 (see learned.go).
	urlModel atomic.Pointer[URLModel]
}

// SetResolver installs a shortened-URL expander: given a URL, it returns
// the long form and true, or ("", false) when the URL is not a known short
// link. The resolver must be safe for concurrent use.
func (m *Monitor) SetResolver(resolve func(string) (string, bool)) {
	if resolve == nil {
		m.resolve.Store(nil)
		return
	}
	m.resolve.Store(&resolve)
}

// AppStats is the per-application aggregate view MyPageKeeper accumulates.
// It drives both the malicious-app ground-truth heuristic (§2.3) and the
// aggregation-based features of full FRAppE (§4.2).
type AppStats struct {
	AppID        string
	Posts        int
	FlaggedPosts int
	// LinkPosts counts the posts that carried a URL — the stream Links
	// samples from, so LinkPosts > len(Links) means the sample is capped.
	LinkPosts     int
	ExternalLinks int
	// Links is the set of distinct URLs the app posted (bounded).
	Links []string
	// Messages is a bounded sample of post texts.
	Messages []string
	// FlaggedMessages is a bounded sample of texts from posts whose URL
	// was (already) flagged when observed — the Table 9 evidence column.
	FlaggedMessages []string
}

const (
	maxLinksPerApp           = 256
	maxMessagesPerApp        = 32
	maxFlaggedMessagesPerApp = 8
)

// New returns a Monitor with the given classifier thresholds and the
// default shard count.
func New(cfg ClassifierConfig) *Monitor {
	return NewSharded(cfg, DefaultShards)
}

// NewSharded returns a Monitor striped over the given number of shards
// (minimum 1). Results are byte-identical for every shard count; the knob
// only trades contention against per-shard map overhead.
func NewSharded(cfg ClassifierConfig, shards int) *Monitor {
	if shards < 1 {
		shards = 1
	}
	m := &Monitor{
		cfg:       cfg,
		blacklist: make(map[string]bool),
		urlBlack:  make(map[string]bool),
		urlShards: make([]urlShard, shards),
		appShards: make([]appShard, shards),
	}
	m.subscribers.Store(&subscriberSet{})
	for i := range m.urlShards {
		m.urlShards[i].urls = make(map[string]*urlStats)
	}
	for i := range m.appShards {
		m.appShards[i].apps = make(map[string]*appAgg)
	}
	return m
}

// NumShards reports the stripe count.
func (m *Monitor) NumShards() int { return len(m.urlShards) }

// fnv32a is the 32-bit FNV-1a string hash, inlined so shard routing is
// deterministic across processes (hash/maphash is seeded per process).
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func (m *Monitor) urlShardFor(link string) *urlShard {
	return &m.urlShards[fnv32a(link)%uint32(len(m.urlShards))]
}

func (m *Monitor) appShardFor(appID string) *appShard {
	return &m.appShards[fnv32a(appID)%uint32(len(m.appShards))]
}

// AddBlacklistedDomain feeds the external URL-blacklist signal (the real
// system consumed public blacklists such as Google Safe Browsing). When
// ingestion is fanned out through an Ingester, route blacklist updates
// through the Ingester instead so they stay ordered against queued posts.
func (m *Monitor) AddBlacklistedDomain(domain string) {
	m.blMu.Lock()
	defer m.blMu.Unlock()
	m.blacklist[strings.ToLower(domain)] = true
}

// AddBlacklistedURL blacklists one exact URL; public blacklists carry both
// domain- and URL-granularity entries.
func (m *Monitor) AddBlacklistedURL(url string) {
	m.blMu.Lock()
	defer m.blMu.Unlock()
	m.urlBlack[url] = true
}

// urlBlacklistedExact reports whether the exact URL is already an entry
// (no resolver expansion): the Ingester's idempotence check.
func (m *Monitor) urlBlacklistedExact(url string) bool {
	m.blMu.RLock()
	defer m.blMu.RUnlock()
	return m.urlBlack[url]
}

// domainBlacklistedExact reports whether the domain itself is an entry
// (no suffix walk): the Ingester's idempotence check.
func (m *Monitor) domainBlacklistedExact(domain string) bool {
	m.blMu.RLock()
	defer m.blMu.RUnlock()
	return m.blacklist[strings.ToLower(domain)]
}

// hasSpamKeyword reports whether a normalised message (normalizeMsg)
// contains any spam lure keyword. Testing the normalised text is the same
// as testing strings.ToLower(msg): no keyword holds whitespace, so each
// occurrence lies inside one whitespace-separated field, and normalizeMsg
// only changes what lies between fields.
func hasSpamKeyword(norm string) bool {
	for _, k := range SpamKeywords {
		if strings.Contains(norm, k) {
			return true
		}
	}
	return false
}

// Observe ingests one post. Posts from unsubscribed walls are ignored —
// MyPageKeeper only sees the profiles of its own users (the paper's
// "limited view of Facebook"). Returns whether the post's URL is (now)
// classified as malicious.
func (m *Monitor) Observe(p fbplatform.Post) bool {
	return m.observeSeq(p, m.seq.Add(1))
}

// observeSeq is Observe with an externally assigned stream position: the
// Ingester stamps sequence numbers producer-side so the bounded per-app
// samples come out identical regardless of which queue worker lands the
// post. The URL phase runs first and its shard lock is released before the
// app shard is taken — at most one shard lock is ever held at a time.
func (m *Monitor) observeSeq(p fbplatform.Post, seq uint64) bool {
	if !m.subscribed(p.UserID) {
		return false
	}
	m.posts.Add(1)
	if p.AppID != "" {
		m.appPosts.Add(1)
	}

	// Per-URL aggregation and classification. Everything order-sensitive
	// (the flag point, the capped message histogram) depends only on the
	// sequence of posts carrying this one URL, which a shard's mutex —
	// and, under an Ingester, per-URL queue routing — preserves.
	flagged, external := false, false
	if p.Link != "" {
		norm := normalizeMsg(p.Message)
		sh := m.urlShardFor(p.Link)
		sh.mu.Lock()
		us := sh.urls[p.Link]
		if us == nil {
			us = newURLStats(p.Link)
			sh.urls[p.Link] = us
		}
		us.posts++
		if hasSpamKeyword(norm) {
			us.keywordPosts++
		}
		us.likesTotal += p.Likes
		if len(us.messages) < maxTrackedMessages {
			us.messages[norm]++
		} else if _, ok := us.messages[norm]; ok {
			// Track only already-seen messages once the histogram is full.
			us.messages[norm]++
		}
		if !us.flagged {
			us.flagged = m.classify(p.Link, us)
		}
		flagged, external = us.flagged, us.external
		sh.mu.Unlock()
	}

	// Per-app aggregation (keyed by the *attributed* app, which is all the
	// monitor can see — this is what makes piggybacking effective). All
	// updates here are commutative: counters, plus samples keyed by seq.
	if p.AppID != "" {
		sh := m.appShardFor(p.AppID)
		sh.mu.Lock()
		as := sh.apps[p.AppID]
		if as == nil {
			as = &appAgg{
				links:           newSeqSample(maxLinksPerApp),
				messages:        newSeqSample(maxMessagesPerApp),
				flaggedMessages: newSeqSample(maxFlaggedMessagesPerApp),
			}
			sh.apps[p.AppID] = as
		}
		as.posts++
		if p.Link != "" {
			as.linkPosts++
			if external {
				as.externalLinks++
			}
			as.links.add(seq, p.Link)
		}
		if p.Message != "" {
			as.messages.add(seq, p.Message)
		}
		if flagged {
			as.flaggedPosts++
			if p.Message != "" {
				as.flaggedMessages.add(seq, p.Message)
			}
		}
		sh.mu.Unlock()
	}
	return flagged
}

// classify applies the URL classifier: blacklist short-circuit, then the
// campaign heuristics. Called with the URL's shard lock held; it takes
// blMu.RLock underneath, which is the one permitted nesting.
func (m *Monitor) classify(link string, us *urlStats) bool {
	target := link
	if rp := m.resolve.Load(); rp != nil {
		if long, ok := (*rp)(link); ok {
			target = long
		}
	}
	if target != us.target {
		us.target, us.domain = target, wot.DomainOf(target)
	}
	m.blMu.RLock()
	bad := m.urlBlack[target] || m.domainBlacklistedLocked(us.domain)
	m.blMu.RUnlock()
	if bad {
		return true
	}
	if us.posts < m.cfg.MinPosts {
		return false
	}
	if model := m.urlModel.Load(); model != nil {
		return model.score(us) >= 0
	}
	keywordRate := float64(us.keywordPosts) / float64(us.posts)
	if keywordRate < m.cfg.KeywordRate {
		return false
	}
	top := 0
	for _, n := range us.messages {
		if n > top {
			top = n
		}
	}
	simRate := float64(top) / float64(us.posts)
	if simRate < m.cfg.SimilarityRate {
		return false
	}
	avgLikes := float64(us.likesTotal) / float64(us.posts)
	return avgLikes <= m.cfg.MaxAvgLikes
}

// domainBlacklistedLocked matches at the registrable-domain level: a
// blacklist entry for "scam.example" also covers "cdn7.scam.example", as
// real URL blacklists do. Callers hold blMu (either mode).
func (m *Monitor) domainBlacklistedLocked(domain string) bool {
	for domain != "" {
		if m.blacklist[domain] {
			return true
		}
		i := strings.IndexByte(domain, '.')
		if i < 0 {
			return false
		}
		domain = domain[i+1:]
	}
	return false
}

// newURLStats starts the aggregate of a URL seen for the first time. Its
// domain is parsed here once, for both isExternal and the blacklist check.
func newURLStats(link string) *urlStats {
	d := wot.DomainOf(link)
	return &urlStats{
		messages: make(map[string]int, 4),
		external: isExternal(d),
		target:   link,
		domain:   d,
	}
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// normalizeMsg canonicalises post text for the similarity histogram and
// the keyword test: strings.Join(strings.Fields(strings.ToLower(msg)), " ").
// ASCII text, nearly every post, takes one pass that lowercases and
// collapses whitespace, and returns msg itself when it is already in
// canonical form; any byte at or above 0x80 falls back to the expression.
func normalizeMsg(msg string) string {
	var stack [128]byte
	out := stack[:0]
	changed, space := false, false
	for i := 0; i < len(msg); i++ {
		c := msg[i]
		switch {
		case c >= utf8.RuneSelf:
			return strings.Join(strings.Fields(strings.ToLower(msg)), " ")
		case asciiSpace[c]:
			// Only a single ' ' between two words is already canonical.
			changed = changed || c != ' ' || space || len(out) == 0
			space = len(out) > 0
			continue
		case 'A' <= c && c <= 'Z':
			c += 'a' - 'A'
			changed = true
		}
		if space {
			out = append(out, ' ')
			space = false
		}
		out = append(out, c)
	}
	if !changed && !space {
		return msg
	}
	return string(out)
}

// isExternal reports whether a link on domain d points outside
// facebook.com (§4.2.2).
func isExternal(d string) bool {
	return d != "facebook.com" && !strings.HasSuffix(d, ".facebook.com")
}

// URLFlagged reports whether the URL has been classified malicious.
func (m *Monitor) URLFlagged(link string) bool {
	sh := m.urlShardFor(link)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	us, ok := sh.urls[link]
	return ok && us.flagged
}

// flaggedLinkCount counts the links whose URL is currently flagged,
// visiting each URL shard at most once (and never holding two at a time).
func (m *Monitor) flaggedLinkCount(links []string) int {
	if len(links) == 0 {
		return 0
	}
	byShard := make(map[*urlShard][]string, 4)
	for _, l := range links {
		sh := m.urlShardFor(l)
		byShard[sh] = append(byShard[sh], l)
	}
	n := 0
	for sh, ls := range byShard {
		sh.mu.Lock()
		for _, l := range ls {
			if us, ok := sh.urls[l]; ok && us.flagged {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// FlaggedPostCount returns, per app, the number of posts whose URL is
// flagged, computed retroactively: once a URL is flagged, *all* posts
// containing it count as malicious, including ones observed before the
// flag. This mirrors "MyPageKeeper marks all posts containing the URL as
// malicious".
func (m *Monitor) FlaggedPostCount(appID string) int {
	sh := m.appShardFor(appID)
	sh.mu.Lock()
	as, ok := sh.apps[appID]
	if !ok {
		sh.mu.Unlock()
		return 0
	}
	links := as.links.values()
	linkPosts, online := as.linkPosts, as.flaggedPosts
	sh.mu.Unlock()

	n := m.flaggedLinkCount(links)
	// Only link-carrying posts feed Links, so the sample is complete —
	// and the retroactive count exact — unless linkPosts exceeded the
	// cap. Past it, fall back to the (lower-bound) online counter.
	if linkPosts > maxLinksPerApp && online > n {
		n = online
	}
	return n
}

// AppFlagged implements the paper's ground-truth heuristic: an app is
// marked malicious if any of its (attributed) posts was flagged.
func (m *Monitor) AppFlagged(appID string) bool {
	return m.FlaggedPostCount(appID) > 0
}

// appSnapshot builds one app's AppStats, with FlaggedPosts recomputed
// retroactively.
func (m *Monitor) appSnapshot(appID string) (AppStats, bool) {
	sh := m.appShardFor(appID)
	sh.mu.Lock()
	as, ok := sh.apps[appID]
	if !ok {
		sh.mu.Unlock()
		return AppStats{}, false
	}
	snap := AppStats{
		AppID:           appID,
		Posts:           as.posts,
		LinkPosts:       as.linkPosts,
		ExternalLinks:   as.externalLinks,
		Links:           as.links.values(),
		Messages:        as.messages.values(),
		FlaggedMessages: as.flaggedMessages.values(),
	}
	linkPosts, online := as.linkPosts, as.flaggedPosts
	sh.mu.Unlock()

	n := m.flaggedLinkCount(snap.Links)
	if linkPosts > maxLinksPerApp && online > n {
		n = online
	}
	snap.FlaggedPosts = n
	return snap, true
}

// flaggedURLSet snapshots the currently flagged URLs, one shard at a time.
func (m *Monitor) flaggedURLSet() map[string]bool {
	out := make(map[string]bool)
	for i := range m.urlShards {
		sh := &m.urlShards[i]
		sh.mu.Lock()
		for u, us := range sh.urls {
			if us.flagged {
				out[u] = true
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// Apps returns a snapshot of every per-app aggregate, with FlaggedPosts
// recomputed retroactively. The flagged-URL set is captured once up
// front and each app shard is walked in sorted app-ID order, so the
// result is independent of the shard layout.
func (m *Monitor) Apps() map[string]AppStats {
	flagged := m.flaggedURLSet()
	out := make(map[string]AppStats)
	for i := range m.appShards {
		sh := &m.appShards[i]
		sh.mu.Lock()
		ids := make([]string, 0, len(sh.apps))
		for id := range sh.apps {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			as := sh.apps[id]
			snap := AppStats{
				AppID:           id,
				Posts:           as.posts,
				LinkPosts:       as.linkPosts,
				ExternalLinks:   as.externalLinks,
				Links:           as.links.values(),
				Messages:        as.messages.values(),
				FlaggedMessages: as.flaggedMessages.values(),
			}
			n := 0
			for _, l := range snap.Links {
				if flagged[l] {
					n++
				}
			}
			if as.linkPosts > maxLinksPerApp && as.flaggedPosts > n {
				n = as.flaggedPosts
			}
			snap.FlaggedPosts = n
			out[id] = snap
		}
		sh.mu.Unlock()
	}
	return out
}

// Stats summarises the monitor's view of the post stream.
type Stats struct {
	PostsObserved int // posts on subscribed walls
	AppPosts      int // of those, posts with an application field
	URLsTracked   int
	URLsFlagged   int
}

// Stats returns stream-level counters, merged across shards.
func (m *Monitor) Stats() Stats {
	s := Stats{
		PostsObserved: int(m.posts.Load()),
		AppPosts:      int(m.appPosts.Load()),
	}
	for i := range m.urlShards {
		sh := &m.urlShards[i]
		sh.mu.Lock()
		s.URLsTracked += len(sh.urls)
		for _, us := range sh.urls {
			if us.flagged {
				s.URLsFlagged++
			}
		}
		sh.mu.Unlock()
	}
	return s
}
