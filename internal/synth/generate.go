package synth

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"frappe/internal/fbplatform"
	"frappe/internal/redirector"
	"frappe/internal/stats"
	"frappe/internal/telemetry"
	"frappe/internal/wot"
)

// Generate builds a complete synthetic world from cfg: it registers all
// apps, seeds WOT / Social Bakers / the URL blacklist, streams nine months
// of posts through MyPageKeeper, populates bit.ly click counters, and
// schedules Facebook's deletions. The world clock is left at the end of
// the observation window (month cfg.Months-1); callers advance it to crawl
// or validation time with AdvanceTo.
func Generate(cfg Config) *World {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	w := newServices(cfg)
	g := &generator{
		w:     w,
		cfg:   cfg,
		rng:   stats.NewRand(cfg.Seed),
		ids:   &appIDSeq{},
		names: nil,
	}
	g.names = newNameGen(g.rng.Fork())
	g.rngPosts = g.rng.Fork()
	g.rngEco = g.rng.Fork()
	g.rngProfile = g.rng.Fork()

	// Per-stage wall clock lands in frappe_synth_stage_seconds{stage}, so
	// slow world builds are attributable to a phase rather than folklore.
	stages := telemetry.Default().Gauge("frappe_synth_stage_seconds",
		"Wall-clock seconds of the last world-generation stage run.", "stage")
	genStart := time.Now()
	timed := func(stage string, fn func()) {
		start := time.Now()
		fn()
		stages.With(stage).Set(time.Since(start).Seconds())
	}

	timed("benign_apps", g.genBenignApps)
	timed("hackers", g.genHackers)
	timed("malicious_apps", g.genMaliciousApps)
	timed("sites", g.genSites)
	// The event-streaming stages fan out through the monitor's queued
	// ingestion path: generation stays single-threaded and seeded, but
	// shard updates land concurrently. The session opens before the
	// blacklists stage so every blacklist add is part of the (optionally
	// WAL-logged) event stream, not just the posts. ingest_drain is the
	// tail latency of the queues; clicks reads Monitor.Apps() and so
	// needs the drain.
	w.beginIngest(cfg.IngestWorkers)
	timed("blacklists", g.assignBlacklists)
	timed("reputations", g.seedReputations)
	timed("posts", g.genPosts)
	timed("manual_posts", g.genManualPosts)
	timed("ingest_drain", w.endIngest)
	timed("clicks", g.genClicks)
	timed("deletions", g.scheduleDeletions)

	// Apply deletions that fall inside the observation window: some apps
	// were already gone from the graph before the crawls started.
	timed("advance", func() {
		w.currentMonth = -1
		w.AdvanceTo(cfg.Months - 1)
	})
	stages.With("total").Set(time.Since(genStart).Seconds())
	return w
}

// generator holds the intermediate state of one Generate run.
type generator struct {
	w   *World
	cfg Config
	rng *stats.Rand
	// Independent streams so that tweaking one phase does not reshuffle
	// the others.
	rngPosts   *stats.Rand
	rngEco     *stats.Rand
	rngProfile *stats.Rand

	ids   *appIDSeq
	names *nameGen

	// benignPartnerDomains / benignNewsDomains are benign external-link
	// targets with known WOT reputations.
	benignPartnerDomains []string
	benignNewsDomains    []string

	// campaignLinks maps each campaign (hacker, name-cluster) to its
	// shared landing links; flaggableLinks collects links on blacklisted
	// domains, reused by manual scam shares.
	campaigns      []*campaign
	flaggableLinks []string

	// appPostsStreamed counts materialized app-attributed posts, sizing
	// the manual-post stream.
	appPostsStreamed int64

	// usedCampaignNames is the global pool lazy hackers draw from.
	usedCampaignNames []string

	// campaignSeq numbers campaigns for tracking-link generation.
	campaignSeq int
}

// campaign is one name-cluster of one hacker: apps sharing a name and a
// small pool of landing links.
type campaign struct {
	hacker      *Hacker
	name        string
	appIDs      []string
	landing     []string // landing-page URLs as posted (some bit.ly-wrapped)
	landingLong []string // the long forms, parallel to landing
	id          int      // sequence number, used in per-campaign tracking links
	message     string   // fixed lure text for non-evasive campaigns
	// evasive campaigns vary post text and avoid lure keywords; drawn per
	// campaign so detection coverage is smooth even in small worlds.
	evasive bool
	// blacklisted campaigns have their landing URLs on MPK's blacklists.
	blacklisted bool
	// clique campaigns cross-promote internally: every app posts install
	// links of its same-name siblings (Fig. 14 / Fig. 15 density).
	clique bool
	// versioned campaigns append version tags to app names.
	versioned bool
}

// ---- Benign side ----

func (g *generator) genBenignApps() {
	cfg := g.cfg
	w := g.w
	nBenign := cfg.NumApps() - cfg.NumMalicious()
	nVictims := cfg.NumPiggybackVictims()
	if nVictims > nBenign {
		nVictims = nBenign
	}

	for i := 0; i < 12; i++ {
		g.benignNewsDomains = append(g.benignNewsDomains, fmt.Sprintf("newsroom%d.example.org", i))
		g.benignPartnerDomains = append(g.benignPartnerDomains, fmt.Sprintf("partnerapp%d.example.com", i))
	}

	var prevID string
	for i := 0; i < nBenign; i++ {
		id := g.ids.next()
		popular := i < nVictims
		var name string
		if popular {
			name = popularBenignNames[i%len(popularBenignNames)]
			if i >= len(popularBenignNames) {
				name = fmt.Sprintf("%s %d", name, i/len(popularBenignNames)+2)
			}
		} else {
			name = g.names.benignName()
		}
		app := &fbplatform.App{
			ID:    id,
			Name:  name,
			Truth: fbplatform.Truth{HackerID: -1},
		}
		if sloppy := !popular && g.rng.Bool(cfg.SloppyBenignRate); sloppy {
			// A legitimate hobby app configured as carelessly as a scam:
			// the rare benign app a profile-based classifier gets wrong.
			app.Permissions = []string{fbplatform.PermPublishStream}
			slug := strings.ToLower(strings.ReplaceAll(name, " ", ""))
			app.RedirectURI = fmt.Sprintf("http://%s-hobby.example.net/go", slug)
		} else {
			if popular || g.rng.Bool(cfg.BenignDescriptionRate) {
				app.Description = fmt.Sprintf("%s: the official app", name)
			}
			if popular || g.rng.Bool(cfg.BenignCompanyRate) {
				app.Company = benignCompanies[g.rng.Intn(len(benignCompanies))]
			}
			if popular || g.rng.Bool(cfg.BenignCategoryRate) {
				app.Category = benignCategories[g.rng.Intn(len(benignCategories))]
			}
			app.Permissions = g.benignPermissions()
			if popular {
				// Flagship apps keep canonical canvas redirects.
				slug := strings.ToLower(strings.ReplaceAll(name, " ", ""))
				app.RedirectURI = "https://apps.facebook.com/" + slug
			} else {
				app.RedirectURI = g.benignRedirect(name)
			}
			if !popular && !cfg.Countermeasures.EnforceClientID &&
				g.rng.Bool(cfg.BenignClientIDMismatch) && prevID != "" {
				app.ClientID = prevID
			}
			if popular || g.rng.Bool(cfg.BenignProfilePostsRate) {
				app.ProfileFeed = g.benignProfileFeed(popular)
			}
		}
		app.MAU = g.benignMAU(popular)
		w.mustRegister(app)
		w.BenignIDs = append(w.BenignIDs, id)
		if popular {
			w.PopularIDs = append(w.PopularIDs, id)
		}
		w.installCrawlable[id] = g.rng.Bool(cfg.InstallCrawlBenignRate)
		w.feedCrawlable[id] = g.rng.Bool(cfg.FeedCrawlBenignRate)

		// Social Bakers vets the large majority of benign apps; 90% of
		// vetted apps rate >= 3 of 5 (§2.3).
		if popular || g.rng.Bool(0.92) {
			var stars float64
			if g.rng.Bool(0.9) {
				stars = 3 + g.rng.Float64()*2
			} else {
				stars = 1 + g.rng.Float64()*2
			}
			if err := w.SocialBakers.Vet(id, stars); err != nil {
				panic(fmt.Sprintf("synth: vet: %v", err))
			}
		}

		// True post volume: heavy-tailed; the victims dominate, like
		// FarmVille's 9.6M posts in Table 9.
		if popular {
			w.TruePosts[id] = int64(g.rng.ClampedPareto(8e5, 1.0, 1.2e7))
		} else {
			w.TruePosts[id] = int64(g.rng.ClampedPareto(3, 0.45, 5e5))
		}
		prevID = id
	}
}

// benignPermissions draws a benign permission set: 55% single-permission,
// with the Fig. 6 ordering of popular permissions.
func (g *generator) benignPermissions() []string {
	n := 1
	if !g.rng.Bool(g.cfg.BenignSinglePermRate) {
		n = 2 + int(g.rng.ClampedPareto(1, 1.1, 28))
	}
	set := make([]string, 0, n)
	seen := map[string]bool{}
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			set = append(set, p)
		}
	}
	if g.rng.Bool(0.77) {
		add(fbplatform.PermPublishStream)
	}
	weighted := []struct {
		perm string
		w    float64
	}{
		{fbplatform.PermOfflineAccess, 8},
		{fbplatform.PermEmail, 6},
		{fbplatform.PermUserBirthday, 4},
		{fbplatform.PermPublishActions, 2},
	}
	for len(set) < n {
		r := g.rng.Float64() * 25
		var pick string
		for _, cand := range weighted {
			if r < cand.w {
				pick = cand.perm
				break
			}
			r -= cand.w
		}
		if pick == "" {
			pick = fbplatform.PermissionCatalog[g.rng.Intn(len(fbplatform.PermissionCatalog))]
		}
		add(pick)
	}
	return set
}

func (g *generator) benignRedirect(name string) string {
	slug := strings.ToLower(strings.ReplaceAll(name, " ", ""))
	switch {
	case g.rng.Bool(g.cfg.BenignFacebookRedirect):
		return "https://apps.facebook.com/" + slug
	case g.rng.Bool(g.cfg.BenignWOTUnknownRate / (1 - g.cfg.BenignFacebookRedirect)):
		return fmt.Sprintf("http://%s-site.example.net/start", slug)
	default:
		d := g.benignPartnerDomains[g.rng.Intn(len(g.benignPartnerDomains))]
		return fmt.Sprintf("http://%s/%s", d, slug)
	}
}

func (g *generator) benignMAU(popular bool) []int {
	var base float64
	if popular {
		base = 5e6 + g.rng.Float64()*3.5e7
	} else {
		base = g.rng.ClampedPareto(50, 0.4, 5e7)
	}
	mau := make([]int, 3)
	for i := range mau {
		mau[i] = int(base * g.rng.LogNormal(0, 0.3))
	}
	return mau
}

func (g *generator) benignProfileFeed(popular bool) []fbplatform.ProfilePost {
	n := int(g.rngProfile.ClampedPareto(1, 0.6, 900))
	if popular && n < 50 {
		n = 50 + g.rngProfile.Intn(400)
	}
	feed := make([]fbplatform.ProfilePost, 0, n)
	for i := 0; i < n; i++ {
		msg := fillInt(benignMessages[g.rngProfile.Intn(len(benignMessages))], g.rngProfile.Intn(10000))
		feed = append(feed, fbplatform.ProfilePost{
			Message: msg,
			Month:   pickMonth(g.rngProfile, g.cfg.Months),
		})
	}
	return feed
}

// fillInt is fmt.Sprintf(tmpl, n) for a template whose one '%' starts a
// %d, as in every benignMessages entry: the post streams format one per
// post, in a single allocation.
func fillInt(tmpl string, n int) string {
	i := strings.IndexByte(tmpl, '%')
	var buf [64]byte
	b := append(buf[:0], tmpl[:i]...)
	b = strconv.AppendInt(b, int64(n), 10)
	return string(append(b, tmpl[i+2:]...))
}

// ---- Malicious side ----

func (g *generator) genHackers() {
	cfg := g.cfg
	nMal := cfg.NumMalicious()
	nHackers := cfg.NumHackers()

	// Heavy-tailed AppNet sizes: a few operators control most apps
	// (§6.1's top components hold 3484 / 770 / 589 / … apps).
	weights := make([]float64, nHackers)
	total := 0.0
	for i := range weights {
		weights[i] = g.rngEco.Pareto(1, 0.7)
		total += weights[i]
	}
	remaining := nMal
	for i := 0; i < nHackers; i++ {
		share := int(float64(nMal) * weights[i] / total)
		if share < 2 {
			share = 2
		}
		if i == nHackers-1 || share > remaining {
			share = remaining
		}
		h := &Hacker{
			ID:            i,
			Evasive:       g.rngEco.Bool(cfg.EvasiveHackerRate),
			Role:          make(map[string]Role),
			DirectTargets: make(map[string][]string),
		}
		for j := 0; j < share; j++ {
			h.AppIDs = append(h.AppIDs, g.ids.next())
		}
		remaining -= share
		g.w.Hackers = append(g.w.Hackers, h)
		if remaining <= 0 {
			break
		}
	}
	// Hosting domains: 1-4 per hacker. Blacklist coverage is assigned
	// later, per campaign, by quota (assignBlacklists).
	for _, h := range g.w.Hackers {
		nd := 1 + len(h.AppIDs)/40
		if nd > 4 {
			nd = 4
		}
		for d := 0; d < nd; d++ {
			h.Domains = append(h.Domains, scamDomain(h.ID, d))
		}
	}
	// Roles (Fig. 13): 25% promoters, 16.2% dual, rest promotees.
	for _, h := range g.w.Hackers {
		for _, id := range h.AppIDs {
			r := g.rngEco.Float64()
			switch {
			case r < cfg.PromoterRate:
				h.Role[id] = RolePromoter
			case r < cfg.PromoterRate+cfg.DualRate:
				h.Role[id] = RoleDual
			default:
				h.Role[id] = RolePromotee
			}
		}
		// Every AppNet needs at least one promoter and one promotee.
		if len(h.AppIDs) >= 2 {
			h.Role[h.AppIDs[0]] = RolePromoter
			h.Role[h.AppIDs[1]] = RolePromotee
		}
	}
}

// genSites builds the indirection websites (§6.1), a third hosted on
// amazonaws.com. Sites broadcast to a hacker's promotees — except members
// of clique campaigns, which promote internally only (their density is the
// whole point).
func (g *generator) genSites() {
	cfg := g.cfg
	inClique := map[string]bool{}
	for _, c := range g.campaigns {
		if c.clique {
			for _, id := range c.appIDs {
				inClique[id] = true
			}
		}
	}
	nSites := cfg.NumIndirectionSites()
	for s := 0; s < nSites; s++ {
		h := g.pickHackerWeighted()
		var host string
		if g.rngEco.Bool(cfg.AmazonHostedSiteRate) {
			host = "amazonaws.com"
		} else {
			host = h.Domains[g.rngEco.Intn(len(h.Domains))]
		}
		var targets []string
		for _, id := range h.AppIDs {
			if h.Role[id] == RolePromotee && !inClique[id] && g.rngEco.Bool(0.8) {
				targets = append(targets, fbplatform.InstallURL(id))
			}
		}
		if len(targets) == 0 {
			targets = []string{fbplatform.InstallURL(h.AppIDs[len(h.AppIDs)-1])}
		}
		site := redirector.NewSite(
			fmt.Sprintf("http://cdn%d.%s/r%d", h.ID, host, s),
			host, targets)
		h.Sites = append(h.Sites, site)
		g.w.Redirector.Add(site)
	}
}

// pickHackerWeighted picks a hacker with probability proportional to its
// app count, so large AppNets run most indirection sites.
func (g *generator) pickHackerWeighted() *Hacker {
	weights := make([]float64, len(g.w.Hackers))
	for i, h := range g.w.Hackers {
		weights[i] = float64(len(h.AppIDs))
	}
	return g.w.Hackers[g.rngEco.PickWeighted(weights)]
}

func (g *generator) genMaliciousApps() {
	cfg := g.cfg
	nameIdx := 0
	for _, h := range g.w.Hackers {
		// Split the hacker's apps into campaigns (name clusters) with a
		// heavy-tailed size distribution averaging cfg.AppsPerCampaignName.
		nCampaigns := len(h.AppIDs)/int(cfg.AppsPerCampaignName) + 1
		cweights := make([]float64, nCampaigns)
		ctotal := 0.0
		for i := range cweights {
			cweights[i] = g.rng.Pareto(1, 1.1)
			ctotal += cweights[i]
		}
		camps := make([]*campaign, nCampaigns)
		for i := range camps {
			// Lazy hackers reuse names that are already circulating (§4.2.1:
			// 627 different apps named 'The App'); otherwise mint a new one.
			var name string
			if len(g.usedCampaignNames) > 0 && g.rng.Bool(0.62) {
				name = g.usedCampaignNames[g.rng.Intn(len(g.usedCampaignNames))]
			} else {
				name = g.names.scamCampaignName(nameIdx)
				nameIdx++
				g.usedCampaignNames = append(g.usedCampaignNames, name)
			}
			camps[i] = g.newCampaign(h, name)
			h.Names = append(h.Names, name)
		}
		for ai, id := range h.AppIDs {
			var camp *campaign
			if ai < nCampaigns {
				camp = camps[ai] // every campaign gets at least one app
			} else {
				camp = camps[g.rng.PickWeighted(cweights)]
			}
			camp.appIDs = append(camp.appIDs, id)
			name := camp.name
			if camp.versioned && len(camp.appIDs) > 1 {
				name = fmt.Sprintf("%s v%d", camp.name, len(camp.appIDs)+2)
			}
			if g.rng.Bool(cfg.TyposquatRate) {
				name = typoOf(popularBenignNames[g.rng.Intn(len(popularBenignNames))])
			}
			g.registerMaliciousApp(h, camp, id, name)
		}
		// Clique formation favours large campaigns: a 26-app name cluster
		// that cross-promotes is exactly the paper's Fig. 15 neighbourhood.
		for _, camp := range camps {
			rate := g.cfg.CliqueCampaignRate / 6
			if len(camp.appIDs) >= 12 {
				rate = g.cfg.CliqueCampaignRate
			}
			camp.clique = g.rng.Bool(rate)
		}
		g.campaigns = append(g.campaigns, camps...)
	}
}

// typoOf drops one interior character from a popular name ('FarmVille' ->
// 'FarmVile').
func typoOf(name string) string {
	if len(name) < 4 {
		return name + "e"
	}
	i := len(name) / 2
	return name[:i] + name[i+1:]
}

// newCampaign builds the shared landing-link pool for one name cluster.
func (g *generator) newCampaign(h *Hacker, name string) *campaign {
	g.campaignSeq++
	c := &campaign{
		hacker:  h,
		id:      g.campaignSeq,
		name:    name,
		message: scamMessages[g.rng.Intn(len(scamMessages))],
		// Drawn independently per campaign: hacker-level correlation would
		// make MyPageKeeper's coverage collapse or saturate whenever one
		// large AppNet dominates a world.
		evasive: g.rng.Bool(g.cfg.EvasiveHackerRate),
		// A minority of campaigns tag versions onto the shared name
		// ('Profile Watchers v4.32'), which the §5.3 validation strips.
		versioned: g.rng.Bool(0.10),
	}
	nLinks := 1 + g.rng.Intn(3)
	for i := 0; i < nLinks; i++ {
		dom := h.Domains[g.rng.Intn(len(h.Domains))]
		long := fmt.Sprintf("http://%s/offer%d-%d", dom, h.ID, g.rng.Intn(1000))
		link := long
		if g.rng.Bool(g.cfg.MaliciousBitlyRate) {
			link = g.w.Bitly.Shorten(long)
		}
		c.landing = append(c.landing, link)
		c.landingLong = append(c.landingLong, long)
	}
	return c
}

// assignBlacklists feeds MPK's URL blacklists by quota: campaigns are
// visited in random order and blacklisted until the app-weighted coverage
// reaches CampaignBlacklistShare. Quota assignment keeps the MPK-detected
// fraction stable at any scale, where independent per-domain coin flips
// would be dominated by a handful of large hackers.
func (g *generator) assignBlacklists() {
	total := 0
	for _, c := range g.campaigns {
		total += len(c.appIDs)
	}
	if total == 0 {
		return
	}
	order := g.rngEco.Perm(len(g.campaigns))
	covered := 0
	for _, i := range order {
		if float64(covered)/float64(total) >= g.cfg.CampaignBlacklistShare {
			break
		}
		c := g.campaigns[i]
		c.blacklisted = true
		covered += len(c.appIDs)
		for j, long := range c.landingLong {
			g.w.addBlacklistedURL(long)
			g.flaggableLinks = append(g.flaggableLinks, c.landing[j])
		}
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func (g *generator) registerMaliciousApp(h *Hacker, camp *campaign, id, name string) {
	cfg := g.cfg
	app := &fbplatform.App{
		ID:   id,
		Name: name,
		Truth: fbplatform.Truth{
			Malicious:    true,
			HackerID:     h.ID,
			CampaignName: camp.name,
		},
	}
	if g.rng.Bool(cfg.PolishedMaliciousRate) {
		// A polished scam configured to look mostly legitimate: the
		// classifier's false negatives come from here (§5.2, §7). Each
		// disguise element is applied independently, so the population
		// blends into the benign profile without moving the paper's
		// per-feature marginals much.
		if g.rng.Bool(0.5) {
			app.Description = fmt.Sprintf("%s: the official app", name)
		}
		if g.rng.Bool(0.5) {
			app.Company = benignCompanies[g.rng.Intn(len(benignCompanies))]
		}
		if g.rng.Bool(0.5) {
			app.Category = benignCategories[g.rng.Intn(len(benignCategories))]
		}
		app.Permissions = g.benignPermissions()
		d := g.benignPartnerDomains[g.rng.Intn(len(g.benignPartnerDomains))]
		app.RedirectURI = fmt.Sprintf("http://%s/landing%s", d, id[len(id)-4:])
		if g.rng.Bool(0.6) {
			app.ProfileFeed = g.benignProfileFeed(false)
		}
	} else {
		if g.rng.Bool(cfg.MaliciousDescriptionRate) {
			app.Description = "The best app ever"
		}
		if g.rng.Bool(cfg.MaliciousCompanyRate) {
			app.Company = "App Studio"
		}
		if g.rng.Bool(cfg.MaliciousCategoryRate) {
			app.Category = benignCategories[g.rng.Intn(len(benignCategories))]
		}
		// Permissions: 97% request only publish_stream (§4.1.2).
		app.Permissions = []string{fbplatform.PermPublishStream}
		if !g.rng.Bool(cfg.MaliciousSinglePermRate) {
			extra := []string{fbplatform.PermOfflineAccess, fbplatform.PermEmail, fbplatform.PermUserBirthday}
			app.Permissions = append(app.Permissions, extra[:1+g.rng.Intn(len(extra))]...)
		}
		// Redirect URI on one of the hacker's hosting domains.
		dom := h.Domains[g.rng.Intn(len(h.Domains))]
		app.RedirectURI = fmt.Sprintf("http://%s/install%s", dom, id[len(id)-4:])
		// Client-ID indirection inside the AppNet (§4.1.4). Under the §7
		// enforcement, the platform rejects mismatched registrations, so
		// hackers are forced to comply.
		if !cfg.Countermeasures.EnforceClientID &&
			g.rng.Bool(cfg.MaliciousClientIDMismatchRate) && len(h.AppIDs) > 1 {
			other := h.AppIDs[g.rng.Intn(len(h.AppIDs))]
			if other != id {
				app.ClientID = other
			}
		}
		if g.rng.Bool(cfg.MaliciousProfilePostsRate) {
			app.ProfileFeed = g.maliciousProfileFeed(h)
		}
	}
	app.MAU = g.maliciousMAU()
	g.w.mustRegister(app)
	g.w.MaliciousIDs = append(g.w.MaliciousIDs, id)
	g.w.TruePosts[id] = int64(g.rng.ClampedPareto(2, 0.8, 1100))
	g.w.installCrawlable[id] = g.rng.Bool(cfg.InstallCrawlMaliciousRate)
	g.w.feedCrawlable[id] = g.rng.Bool(cfg.FeedCrawlMaliciousRate)
}

func (g *generator) maliciousMAU() []int {
	base := g.rng.ClampedPareto(20, 0.23, 2.6e5)
	mau := make([]int, 3)
	for i := range mau {
		mau[i] = int(base * g.rng.LogNormal(0, 0.5))
	}
	return mau
}

// maliciousProfileFeed: the 3% of malicious apps with profile posts use
// them to advertise scam URLs (§4.1.5).
func (g *generator) maliciousProfileFeed(h *Hacker) []fbplatform.ProfilePost {
	n := 1 + g.rngProfile.Intn(150)
	feed := make([]fbplatform.ProfilePost, 0, n)
	for i := 0; i < n; i++ {
		dom := h.Domains[g.rngProfile.Intn(len(h.Domains))]
		feed = append(feed, fbplatform.ProfilePost{
			Message: scamMessages[g.rngProfile.Intn(len(scamMessages))],
			Link:    "http://" + dom + "/freebies" + strconv.Itoa(i),
			Month:   pickMonth(g.rngProfile, g.cfg.Months),
		})
	}
	return feed
}

// ---- Reputation seeding ----

func (g *generator) seedReputations() {
	// Facebook's own domain is highly trusted.
	g.w.mustSetWOT("apps.facebook.com", 92)
	g.w.mustSetWOT("facebook.com", 93)
	for _, d := range g.benignPartnerDomains {
		g.w.mustSetWOT(d, 60+g.rng.Intn(36))
	}
	for _, d := range g.benignNewsDomains {
		g.w.mustSetWOT(d, 70+g.rng.Intn(28))
	}
	// Scam domains: 80% unknown to WOT, 15% known-bad (< 5), 5% mediocre
	// (Fig. 8). With few domains per world, independent coin flips would
	// be lumpy (one mis-classed domain can host a tenth of all malicious
	// apps), so classes are assigned by app-weighted quota instead.
	g.assignScamDomainReputations()
}

// assignScamDomainReputations distributes WOT classes over scam hosting
// domains so that the app-weighted class shares match the Fig. 8 targets
// at any world scale.
func (g *generator) assignScamDomainReputations() {
	cfg := g.cfg
	appsPerDomain := map[string]int{}
	for _, id := range g.w.MaliciousIDs {
		app, err := g.w.Platform.App(id)
		if err != nil {
			continue
		}
		d := wot.DomainOf(app.RedirectURI)
		if strings.Contains(d, "example") {
			continue // polished apps on partner domains are already scored
		}
		appsPerDomain[d]++
	}
	type domCount struct {
		dom  string
		apps int
	}
	doms := make([]domCount, 0, len(appsPerDomain))
	total := 0
	for d, n := range appsPerDomain {
		doms = append(doms, domCount{d, n})
		total += n
	}
	sort.Slice(doms, func(i, j int) bool {
		if doms[i].apps != doms[j].apps {
			return doms[i].apps > doms[j].apps
		}
		return doms[i].dom < doms[j].dom
	})
	targets := []float64{cfg.MaliciousWOTUnknownRate, cfg.MaliciousWOTLowRate,
		1 - cfg.MaliciousWOTUnknownRate - cfg.MaliciousWOTLowRate}
	assigned := []float64{0, 0, 0}
	for _, dc := range doms {
		// Give the domain to the class with the largest deficit.
		best, deficit := 0, -1.0
		for c := range targets {
			d := targets[c] - assigned[c]/float64(total)
			if d > deficit {
				deficit, best = d, c
			}
		}
		assigned[best] += float64(dc.apps)
		switch best {
		case 0:
			// absent from WOT
		case 1:
			g.w.mustSetWOT(dc.dom, g.rng.Intn(5))
		default:
			g.w.mustSetWOT(dc.dom, 5+g.rng.Intn(55))
		}
	}
}

// ---- Post streams ----

func (g *generator) genPosts() {
	for _, id := range g.w.BenignIDs {
		g.streamBenignAppPosts(id)
	}
	for _, camp := range g.campaigns {
		for _, id := range camp.appIDs {
			g.streamMaliciousAppPosts(camp, id)
		}
	}
	g.streamPiggybackPosts()
}

func (g *generator) streamBenignAppPosts(id string) {
	cfg := g.cfg
	rng := g.rngPosts
	n := int(g.w.TruePosts[id])
	if cap := g.materializeCap(id); n > cap {
		n = cap
	}
	// 80% of benign apps post no external links at all; the rest post a
	// few (Fig. 12).
	external := rng.Bool(cfg.BenignExternalLinkRate)
	extRate := 0.0
	if external {
		extRate = 0.02 + rng.Float64()*0.33
	}
	app, err := g.w.Platform.App(id)
	if err != nil {
		panic(fmt.Sprintf("synth: benign app %s vanished: %v", id, err))
	}
	slug := strings.ToLower(strings.ReplaceAll(app.Name, " ", ""))
	for i := 0; i < n; i++ {
		p := fbplatform.Post{
			AppID:       id,
			SourceAppID: id,
			UserID:      rng.Intn(cfg.NumUsers()),
			Message:     fillInt(benignMessages[rng.Intn(len(benignMessages))], rng.Intn(100000)),
			Month:       pickMonth(rng, cfg.Months),
			Likes:       int(rng.ClampedPareto(1, 1.2, 500)),
		}
		switch {
		case external && rng.Bool(extRate):
			d := g.benignNewsDomains[rng.Intn(len(g.benignNewsDomains))]
			p.Link = "http://" + d + "/story" + strconv.Itoa(rng.Intn(5000))
		case rng.Bool(0.5):
			p.Link = "https://apps.facebook.com/" + slug
		}
		g.appPostsStreamed++
		g.w.observe(p)
	}
}

func (g *generator) streamMaliciousAppPosts(camp *campaign, id string) {
	cfg := g.cfg
	rng := g.rngPosts
	h := camp.hacker
	n := int(g.w.TruePosts[id])
	if n > cfg.MaxMaterializedPostsPerApp {
		n = cfg.MaxMaterializedPostsPerApp
	}
	role := h.Role[id]

	// Promotion link pool for this app. Under the §7 promotion ban the
	// pool stays empty and promoters fall back to landing links.
	var promoLinks []string
	switch {
	case cfg.Countermeasures.BlockAppPromotion:
	case role == RolePromoter || role == RoleDual:
		// Dual-role apps promote narrowly (direct sibling links); pure
		// promoters mostly broadcast through indirection sites.
		if role == RolePromoter && len(h.Sites) > 0 && !rng.Bool(cfg.DirectPromoterRate) {
			// Indirect promotion through 1-2 indirection sites.
			ns := 1
			if len(h.Sites) > 1 && rng.Bool(0.4) {
				ns = 2
			}
			for s := 0; s < ns; s++ {
				site := h.Sites[rng.Intn(len(h.Sites))]
				// Each campaign wraps its own tracking variant of the site
				// URL; the indirection site ignores the query string.
				tracked := fmt.Sprintf("%s?c=%d", site.URL, camp.id)
				promoLinks = append(promoLinks, g.w.Bitly.Shorten(tracked))
			}
		} else {
			// Direct links to sibling apps ('The App' promoted 24 others
			// named 'The App' or 'La App' — same-campaign siblings first).
			nTargets := 1 + rng.Intn(24)
			for t := 0; t < nTargets; t++ {
				var target string
				if len(camp.appIDs) > 1 && rng.Bool(0.8) {
					target = camp.appIDs[rng.Intn(len(camp.appIDs))]
				} else {
					target = h.AppIDs[rng.Intn(len(h.AppIDs))]
				}
				if target == id {
					continue
				}
				link := fbplatform.InstallURL(target)
				if rng.Bool(0.1) {
					link = g.w.Bitly.Shorten(link)
				}
				promoLinks = append(promoLinks, link)
				h.DirectTargets[id] = append(h.DirectTargets[id], target)
			}
		}
	}
	// Clique campaigns cross-promote internally regardless of role: every
	// member links its same-name siblings, forming the dense
	// neighbourhoods of Fig. 15 (22 of 'Death Predictor's 26 neighbours
	// share its name).
	var cliqueLinks []string
	if camp.clique && len(camp.appIDs) > 1 && !cfg.Countermeasures.BlockAppPromotion {
		for _, t := range rng.Perm(len(camp.appIDs)) {
			sib := camp.appIDs[t]
			if sib == id {
				continue
			}
			cliqueLinks = append(cliqueLinks, fbplatform.InstallURL(sib))
		}
	}

	for i := 0; i < n; i++ {
		var link string
		switch {
		case len(cliqueLinks) > 0 && rng.Bool(0.6):
			// Round-robin over the sibling list covers the whole clique.
			link = cliqueLinks[i%len(cliqueLinks)]
		case role == RolePromoter && len(promoLinks) > 0:
			link = promoLinks[rng.Intn(len(promoLinks))]
		case role == RoleDual && len(promoLinks) > 0 && rng.Bool(0.5):
			link = promoLinks[rng.Intn(len(promoLinks))]
		default:
			link = camp.landing[rng.Intn(len(camp.landing))]
		}
		msg := camp.message
		if camp.evasive {
			msg = evasiveMessages[rng.Intn(len(evasiveMessages))] + " [" + strconv.Itoa(rng.Intn(1_000_000)) + "]"
		}
		p := fbplatform.Post{
			AppID:         id,
			SourceAppID:   id,
			UserID:        rng.Intn(cfg.NumUsers()),
			Message:       msg,
			Link:          link,
			Month:         pickMonth(rng, cfg.Months),
			Likes:         rng.Intn(3),
			MaliciousLink: true,
		}
		g.appPostsStreamed++
		g.w.observe(p)
	}
}

// streamPiggybackPosts abuses prompt_feed to attribute scam posts to the
// popular victims (§6.2, Table 9, Fig. 16).
func (g *generator) streamPiggybackPosts() {
	cfg := g.cfg
	rng := g.rngPosts
	// Prefer hackers with blacklisted campaigns so victim posts get
	// flagged, which is what put FarmVille on MyPageKeeper's radar.
	blacklistedHackers := map[int]bool{}
	for _, c := range g.campaigns {
		if c.blacklisted {
			blacklistedHackers[c.hacker.ID] = true
		}
	}
	var flagged []*Hacker
	for _, h := range g.w.Hackers {
		if blacklistedHackers[h.ID] {
			flagged = append(flagged, h)
		}
	}
	if len(flagged) == 0 {
		flagged = g.w.Hackers
	}
	for _, victim := range g.w.PopularIDs {
		vn := int(g.w.TruePosts[victim])
		if cap := g.materializeCap(victim); vn > cap {
			vn = cap
		}
		n := int(float64(vn) * cfg.PiggybackPostFrac)
		if n < 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			h := flagged[rng.Intn(len(flagged))]
			source := h.AppIDs[rng.Intn(len(h.AppIDs))]
			long := "http://" + h.Domains[0] + "/credits" + strconv.Itoa(h.ID)
			// Piggyback lures reuse the hackers' blacklisted campaign
			// infrastructure, so the monitor flags them. Routed through
			// the ingester: the first add per hacker must be ordered
			// against the queued stream (later adds are no-ops).
			g.w.addBlacklistedURL(long)
			link := g.w.Bitly.Shorten(long)
			post, err := g.w.Platform.PromptFeedPost(
				victim, source,
				rng.Intn(cfg.NumUsers()),
				scamMessages[rng.Intn(len(scamMessages))],
				link, pickMonth(rng, cfg.Months), true)
			if err != nil {
				if errors.Is(err, fbplatform.ErrPromptFeedPolicy) {
					g.w.PiggybackRejected++
					continue
				}
				panic(fmt.Sprintf("synth: prompt_feed: %v", err))
			}
			g.w.PiggybackPosts[victim]++
			g.appPostsStreamed++
			g.w.observe(post)
		}
	}
}

// materializeCap bounds per-app streamed posts. The piggybacking victims
// are the monitor's hottest apps by far (FarmVille alone contributes 9.6M
// of the paper's 91M posts), so they get a larger sample to keep the
// flagged-post attribution shares of §2.2 in proportion.
func (g *generator) materializeCap(id string) int {
	for _, p := range g.w.PopularIDs {
		if p == id {
			return 8 * g.cfg.MaxMaterializedPostsPerApp
		}
	}
	return g.cfg.MaxMaterializedPostsPerApp
}

// genManualPosts streams the app-less 37% of the feed: manual posts and
// social-plugin shares, a few of which spread the same scam URLs (§2.2).
func (g *generator) genManualPosts() {
	cfg := g.cfg
	rng := g.rngPosts
	n := int(float64(g.appPostsStreamed) * cfg.ManualPostFrac / (1 - cfg.ManualPostFrac))
	for i := 0; i < n; i++ {
		p := fbplatform.Post{
			UserID: rng.Intn(cfg.NumUsers()),
			Month:  pickMonth(rng, cfg.Months),
			Likes:  int(rng.ClampedPareto(1, 1.3, 300)),
		}
		if len(g.flaggableLinks) > 0 && rng.Bool(cfg.ManualScamShareRate) {
			// A user manually re-sharing a scam link they fell for.
			p.Link = g.flaggableLinks[rng.Intn(len(g.flaggableLinks))]
			p.Message = scamMessages[rng.Intn(len(scamMessages))]
			p.Likes = rng.Intn(3)
			p.MaliciousLink = true
			g.w.manualLinkCounts[p.Link]++
		} else if rng.Bool(0.4) {
			d := g.benignNewsDomains[rng.Intn(len(g.benignNewsDomains))]
			p.Link = "http://" + d + "/story" + strconv.Itoa(rng.Intn(5000))
			p.Message = "interesting read " + strconv.Itoa(rng.Intn(100000))
		} else {
			p.Message = "status update " + strconv.Itoa(rng.Intn(1_000_000))
		}
		g.w.observe(p)
	}
}

// ManualFlaggedPosts counts app-less posts whose URL ended up flagged — the
// paper's "27% of flagged posts have no associated application".
func (w *World) ManualFlaggedPosts() int64 {
	var n int64
	for link, count := range w.manualLinkCounts {
		if w.Monitor.URLFlagged(link) {
			n += count
		}
	}
	return n
}

// genClicks populates bit.ly click counters: every shortened link
// accumulates a heavy-tailed click count, calibrated so that per-app click
// sums reproduce Fig. 3 (60% of malicious apps above 100K clicks, 20%
// above 1M; the top app in the paper saw 1,742,359).
func (g *generator) genClicks() {
	apps := g.w.Monitor.Apps()
	// Apps() hands back a map; iterating it directly would pair links with
	// click draws in map order, making the world differ run to run for the
	// same seed. Walk the apps in sorted order so the RNG stream lands
	// deterministically.
	ids := make([]string, 0, len(apps))
	for id := range apps {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	seen := map[string]bool{}
	for _, id := range ids {
		as := apps[id]
		for _, link := range as.Links {
			if !g.w.Bitly.IsShort(link) || seen[link] {
				continue
			}
			seen[link] = true
			clicks := int64(g.rngEco.ClampedPareto(2.2e4, 0.5, 1.7e6))
			if err := g.w.Bitly.AddClicks(link, clicks); err != nil {
				panic(fmt.Sprintf("synth: clicks: %v", err))
			}
		}
	}
}

// scheduleDeletions assigns Facebook's removal times (§5.3 timeline).
func (g *generator) scheduleDeletions() {
	cfg := g.cfg
	for _, id := range g.w.MaliciousIDs {
		r := g.rngEco.Float64()
		switch {
		case r < cfg.MaliciousDeletedByCrawl:
			g.w.deleteMonth[id] = g.rngEco.IntBetween(2, cfg.CrawlMonth-1)
		case r < cfg.MaliciousDeletedByValidation:
			g.w.deleteMonth[id] = g.rngEco.IntBetween(cfg.CrawlMonth+1, cfg.ValidationMonth-1)
		}
	}
	for _, id := range g.w.BenignIDs {
		if g.rngEco.Bool(cfg.BenignDeletedByCrawl) {
			g.w.deleteMonth[id] = g.rngEco.IntBetween(2, cfg.CrawlMonth-1)
		}
	}
}
