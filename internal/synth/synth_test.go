package synth

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"frappe/internal/fbplatform"
	"frappe/internal/wot"
)

// The generated world is expensive enough to share across tests.
var (
	worldOnce sync.Once
	testWorld *World
)

func sharedWorld(t *testing.T) *World {
	t.Helper()
	worldOnce.Do(func() { testWorld = Generate(TestConfig()) })
	return testWorld
}

// frac asserts v is within [lo, hi], with a helpful message.
func assertFrac(t *testing.T, name string, v, lo, hi float64) {
	t.Helper()
	if v < lo || v > hi {
		t.Errorf("%s = %.3f, want in [%.3f, %.3f]", name, v, lo, hi)
	}
}

func TestWorldPopulation(t *testing.T) {
	w := sharedWorld(t)
	cfg := w.Config
	if got := w.Platform.NumApps(); got != cfg.NumApps() {
		t.Errorf("NumApps = %d, want %d", got, cfg.NumApps())
	}
	if len(w.MaliciousIDs)+len(w.BenignIDs) != cfg.NumApps() {
		t.Errorf("partition broken: %d + %d != %d",
			len(w.MaliciousIDs), len(w.BenignIDs), cfg.NumApps())
	}
	fracMal := float64(len(w.MaliciousIDs)) / float64(cfg.NumApps())
	assertFrac(t, "malicious fraction", fracMal, 0.10, 0.16)
	if len(w.PopularIDs) < 3 {
		t.Errorf("popular victims = %d", len(w.PopularIDs))
	}
}

func TestGroundTruthConsistency(t *testing.T) {
	w := sharedWorld(t)
	for _, id := range w.MaliciousIDs {
		app, err := w.Platform.App(id)
		if err != nil {
			t.Fatalf("malicious app %s missing: %v", id, err)
		}
		if !app.Truth.Malicious || app.Truth.HackerID < 0 {
			t.Fatalf("truth wrong for %s: %+v", id, app.Truth)
		}
		if !w.IsMalicious(id) {
			t.Fatalf("IsMalicious(%s) = false", id)
		}
	}
	for _, id := range w.BenignIDs {
		if w.IsMalicious(id) {
			t.Fatalf("benign app %s marked malicious", id)
		}
	}
}

func TestMaliciousFeatureMarginals(t *testing.T) {
	w := sharedWorld(t)
	var desc, onePerm, mismatch, profilePosts, oddPerm int
	for _, id := range w.MaliciousIDs {
		app, _ := w.Platform.App(id)
		if app.Description != "" {
			desc++
		}
		if len(app.Permissions) == 1 {
			onePerm++
			if app.Permissions[0] != fbplatform.PermPublishStream {
				oddPerm++ // only polished scams may request something else
			}
		}
		if app.ClientID != app.ID {
			mismatch++
		}
		if len(app.ProfileFeed) > 0 {
			profilePosts++
		}
	}
	n := float64(len(w.MaliciousIDs))
	assertFrac(t, "single-perm non-publish_stream share", float64(oddPerm)/n, 0, 0.05)
	assertFrac(t, "malicious description rate", float64(desc)/n, 0, 0.09)
	assertFrac(t, "malicious single-perm rate", float64(onePerm)/n, 0.92, 1)
	assertFrac(t, "malicious client-ID mismatch", float64(mismatch)/n, 0.65, 0.88)
	assertFrac(t, "malicious profile-post rate", float64(profilePosts)/n, 0, 0.09)
}

func TestBenignFeatureMarginals(t *testing.T) {
	w := sharedWorld(t)
	var desc, onePerm, mismatch, profilePosts, fbRedirect int
	for _, id := range w.BenignIDs {
		app, _ := w.Platform.App(id)
		if app.Description != "" {
			desc++
		}
		if len(app.Permissions) == 1 {
			onePerm++
		}
		if app.ClientID != app.ID {
			mismatch++
		}
		if len(app.ProfileFeed) > 0 {
			profilePosts++
		}
		if strings.HasPrefix(app.RedirectURI, "https://apps.facebook.com/") {
			fbRedirect++
		}
	}
	n := float64(len(w.BenignIDs))
	assertFrac(t, "benign description rate", float64(desc)/n, 0.90, 0.99)
	assertFrac(t, "benign single-perm rate", float64(onePerm)/n, 0.45, 0.65)
	assertFrac(t, "benign client-ID mismatch", float64(mismatch)/n, 0, 0.03)
	assertFrac(t, "benign profile-post rate", float64(profilePosts)/n, 0.90, 0.99)
	assertFrac(t, "benign facebook redirect", float64(fbRedirect)/n, 0.72, 0.88)
}

func TestNameSharing(t *testing.T) {
	w := sharedWorld(t)
	counts := map[string]int{}
	for _, id := range w.MaliciousIDs {
		app, _ := w.Platform.App(id)
		counts[app.Truth.CampaignName]++
	}
	shared := 0
	for _, id := range w.MaliciousIDs {
		app, _ := w.Platform.App(id)
		if counts[app.Truth.CampaignName] > 1 {
			shared++
		}
	}
	// §4.2.1: 87% of malicious apps share a name with another one.
	assertFrac(t, "name-sharing malicious apps",
		float64(shared)/float64(len(w.MaliciousIDs)), 0.6, 1)
}

func TestMPKDetectionRate(t *testing.T) {
	w := sharedWorld(t)
	flagged := 0
	for _, id := range w.MaliciousIDs {
		if w.Monitor.AppFlagged(id) {
			flagged++
		}
	}
	// Paper: 6,350 of 14,401 truly-malicious apps (≈44%) get caught by
	// the post-level heuristic. Small test worlds are lumpy; allow slack.
	assertFrac(t, "MPK-flagged malicious fraction",
		float64(flagged)/float64(len(w.MaliciousIDs)), 0.2, 0.75)
}

func TestBenignRarelyFlagged(t *testing.T) {
	w := sharedWorld(t)
	popular := map[string]bool{}
	for _, id := range w.PopularIDs {
		popular[id] = true
	}
	flagged := 0
	for _, id := range w.BenignIDs {
		if popular[id] {
			continue
		}
		if w.Monitor.AppFlagged(id) {
			flagged++
		}
	}
	assertFrac(t, "non-victim benign flagged",
		float64(flagged)/float64(len(w.BenignIDs)), 0, 0.01)
}

func TestPiggybackVictimsFlagged(t *testing.T) {
	w := sharedWorld(t)
	flaggedVictims := 0
	for _, id := range w.PopularIDs {
		if w.Monitor.AppFlagged(id) {
			flaggedVictims++
		}
		if w.PiggybackPosts[id] == 0 {
			t.Errorf("victim %s got no piggybacked posts", id)
		}
	}
	if flaggedVictims == 0 {
		t.Error("no piggyback victim was flagged; whitelisting has nothing to do")
	}
	// Victims' malicious-post ratio must be low (Fig. 16's < 0.2 knee).
	apps := w.Monitor.Apps()
	for _, id := range w.PopularIDs {
		as, ok := apps[id]
		if !ok || as.Posts == 0 {
			continue
		}
		ratio := float64(as.FlaggedPosts) / float64(as.Posts)
		if ratio > 0.3 {
			t.Errorf("victim %s flagged ratio %.2f, want < 0.3", id, ratio)
		}
	}
}

func TestDeletionTimeline(t *testing.T) {
	w := sharedWorld(t)
	cfg := w.Config
	byCrawl, byValidation := 0, 0
	for _, id := range w.MaliciousIDs {
		m := w.DeleteMonthOf(id)
		if m > 0 && m < cfg.CrawlMonth {
			byCrawl++
		}
		if m > 0 && m < cfg.ValidationMonth {
			byValidation++
		}
	}
	n := float64(len(w.MaliciousIDs))
	assertFrac(t, "malicious deleted by crawl", float64(byCrawl)/n, 0.5, 0.7)
	assertFrac(t, "malicious deleted by validation", float64(byValidation)/n, 0.78, 0.92)
}

func TestAdvanceToAppliesDeletions(t *testing.T) {
	// Needs its own world: AdvanceTo mutates shared state.
	cfg := TestConfig()
	cfg.Seed = 77
	w := Generate(cfg)
	var target string
	for _, id := range w.MaliciousIDs {
		// Deletion scheduled after the current clock but before the crawl.
		if m := w.DeleteMonthOf(id); m > w.CurrentMonth() && m < cfg.CrawlMonth {
			target = id
			break
		}
	}
	if target == "" {
		t.Skip("no deletion scheduled before crawl in this seed")
	}
	if _, err := w.Platform.Lookup(target); err != nil {
		t.Fatalf("app deleted before AdvanceTo: %v", err)
	}
	w.AdvanceTo(cfg.CrawlMonth)
	if _, err := w.Platform.Lookup(target); err == nil {
		t.Error("app still visible after AdvanceTo(crawl)")
	}
	if w.CurrentMonth() != cfg.CrawlMonth {
		t.Errorf("CurrentMonth = %d", w.CurrentMonth())
	}
	// Moving backwards is a no-op.
	w.AdvanceTo(0)
	if w.CurrentMonth() != cfg.CrawlMonth {
		t.Error("AdvanceTo moved backwards")
	}
}

func TestStreamComposition(t *testing.T) {
	w := sharedWorld(t)
	manualFrac := float64(w.ManualPosts) / float64(w.TotalStreamPosts)
	// §2.2: 37% of posts have no application field.
	assertFrac(t, "manual post fraction", manualFrac, 0.30, 0.44)
	if w.ManualFlaggedPosts() == 0 {
		t.Error("no manual scam shares were flagged")
	}
}

func TestRolesAssigned(t *testing.T) {
	w := sharedWorld(t)
	var promoters, promotees, duals int
	for _, id := range w.MaliciousIDs {
		switch w.RoleOf(id) {
		case RolePromoter:
			promoters++
		case RolePromotee:
			promotees++
		case RoleDual:
			duals++
		}
	}
	n := float64(len(w.MaliciousIDs))
	assertFrac(t, "promoter share", float64(promoters)/n, 0.15, 0.40)
	assertFrac(t, "promotee share", float64(promotees)/n, 0.40, 0.75)
	assertFrac(t, "dual share", float64(duals)/n, 0.05, 0.30)
	if RolePromoter.String() != "promoter" || RoleNone.String() != "none" {
		t.Error("Role.String broken")
	}
}

func TestIndirectionSites(t *testing.T) {
	w := sharedWorld(t)
	if w.Redirector.NumSites() < 2 {
		t.Fatalf("sites = %d", w.Redirector.NumSites())
	}
	amazon := 0
	total := 0
	for _, h := range w.Hackers {
		for _, s := range h.Sites {
			total++
			if s.HostDomain == "amazonaws.com" {
				amazon++
			}
			if s.NumTargets() == 0 {
				t.Error("site with no targets")
			}
			for _, target := range s.Targets() {
				if id, ok := fbplatform.ParseInstallURL(target); !ok {
					t.Errorf("site target %q is not an install URL", target)
				} else if !w.IsMalicious(id) {
					t.Errorf("site target %s is not malicious", id)
				}
			}
		}
	}
	if total != w.Redirector.NumSites() {
		t.Errorf("hacker sites %d != registered sites %d", total, w.Redirector.NumSites())
	}
	if total >= 6 {
		assertFrac(t, "amazon-hosted sites", float64(amazon)/float64(total), 0.05, 0.7)
	}
}

func TestWOTSeparation(t *testing.T) {
	w := sharedWorld(t)
	// Benign redirects resolve to reputable or facebook domains far more
	// often than malicious ones.
	scoreOf := func(id string) int {
		app, _ := w.Platform.App(id)
		d := wot.DomainOf(app.RedirectURI)
		s, err := w.WOT.Score(d)
		if err != nil {
			return wot.UnknownScore
		}
		return s
	}
	benHigh, malHigh := 0, 0
	for _, id := range w.BenignIDs {
		if scoreOf(id) >= 60 {
			benHigh++
		}
	}
	for _, id := range w.MaliciousIDs {
		if scoreOf(id) >= 60 {
			malHigh++
		}
	}
	benFrac := float64(benHigh) / float64(len(w.BenignIDs))
	malFrac := float64(malHigh) / float64(len(w.MaliciousIDs))
	if benFrac < 0.7 {
		t.Errorf("benign high-reputation fraction = %.2f", benFrac)
	}
	if malFrac > 0.1 {
		t.Errorf("malicious high-reputation fraction = %.2f", malFrac)
	}
}

func TestBitlyClicksPopulated(t *testing.T) {
	w := sharedWorld(t)
	apps := w.Monitor.Apps()
	appsWithClicks := 0
	for _, id := range w.MaliciousIDs {
		as, ok := apps[id]
		if !ok {
			continue
		}
		var total int64
		for _, link := range as.Links {
			if !w.Bitly.IsShort(link) {
				continue
			}
			n, err := w.Bitly.Clicks(link)
			if err != nil {
				t.Fatalf("clicks for %s: %v", link, err)
			}
			total += n
		}
		if total > 0 {
			appsWithClicks++
		}
	}
	if appsWithClicks < len(w.MaliciousIDs)/4 {
		t.Errorf("only %d of %d malicious apps have bit.ly clicks",
			appsWithClicks, len(w.MaliciousIDs))
	}
}

func TestDeterminism(t *testing.T) {
	cfg := TestConfig()
	cfg.Scale = 0.003
	a := Generate(cfg)
	b := Generate(cfg)
	if len(a.MaliciousIDs) != len(b.MaliciousIDs) || len(a.BenignIDs) != len(b.BenignIDs) {
		t.Fatal("same seed produced different populations")
	}
	if a.TotalStreamPosts != b.TotalStreamPosts {
		t.Errorf("stream sizes differ: %d vs %d", a.TotalStreamPosts, b.TotalStreamPosts)
	}
	for i := range a.MaliciousIDs {
		if a.MaliciousIDs[i] != b.MaliciousIDs[i] {
			t.Fatal("malicious ID sequences differ")
		}
	}
	sa, sb := a.Monitor.Stats(), b.Monitor.Stats()
	if sa != sb {
		t.Errorf("monitor stats differ: %+v vs %+v", sa, sb)
	}
}

func TestTopAppsByTruePosts(t *testing.T) {
	w := sharedWorld(t)
	top := w.TopAppsByTruePosts(w.MaliciousIDs, 5)
	if len(top) != 5 {
		t.Fatalf("top = %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if w.TruePosts[top[i-1]] < w.TruePosts[top[i]] {
			t.Error("top apps not sorted by volume")
		}
	}
}

func TestTypoOf(t *testing.T) {
	if typoOf("FarmVille") == "FarmVille" {
		t.Error("typoOf must change the name")
	}
	if len(typoOf("FarmVille")) != len("FarmVille")-1 {
		t.Error("typoOf should drop one character")
	}
}

// TestFillIntMatchesSprintf: every benignMessages template holds exactly
// one %d and no other '%', so fillInt formats it as fmt.Sprintf does.
func TestFillIntMatchesSprintf(t *testing.T) {
	for _, tmpl := range benignMessages {
		if strings.Count(tmpl, "%d") != 1 || strings.Count(tmpl, "%") != 1 {
			t.Errorf("template %q must hold exactly one %%d and no other %%", tmpl)
			continue
		}
		for _, n := range []int{0, 9, 99999} {
			if got, want := fillInt(tmpl, n), fmt.Sprintf(tmpl, n); got != want {
				t.Errorf("fillInt(%q, %d) = %q, want %q", tmpl, n, got, want)
			}
		}
	}
}

// TestIngestWorkerDeterminism asserts the end-to-end claim of the queued
// ingestion path: generation produces a byte-identical monitor view for
// any worker fan-out.
func TestIngestWorkerDeterminism(t *testing.T) {
	build := func(workers int) *World {
		cfg := TestConfig()
		cfg.Scale = 0.003
		cfg.IngestWorkers = workers
		return Generate(cfg)
	}
	a := build(1)
	b := build(4)
	if a.TotalStreamPosts != b.TotalStreamPosts {
		t.Fatalf("stream sizes differ: %d vs %d", a.TotalStreamPosts, b.TotalStreamPosts)
	}
	if sa, sb := a.Monitor.Stats(), b.Monitor.Stats(); sa != sb {
		t.Fatalf("monitor stats differ: %+v vs %+v", sa, sb)
	}
	appsA, appsB := a.Monitor.Apps(), b.Monitor.Apps()
	if len(appsA) != len(appsB) {
		t.Fatalf("app counts differ: %d vs %d", len(appsA), len(appsB))
	}
	for id, sa := range appsA {
		if sb, ok := appsB[id]; !ok || !reflect.DeepEqual(sa, sb) {
			t.Fatalf("AppStats[%q] differ:\n  w1: %+v\n  w4: %+v", id, sa, appsB[id])
		}
	}
}
