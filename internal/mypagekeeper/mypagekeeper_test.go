package mypagekeeper

import (
	"fmt"
	"sync"
	"testing"

	"frappe/internal/fbplatform"
)

func post(app string, user int, msg, link string, likes int) fbplatform.Post {
	return fbplatform.Post{
		AppID:       app,
		SourceAppID: app,
		UserID:      user,
		Message:     msg,
		Link:        link,
		Likes:       likes,
	}
}

func TestSubscriptionFiltering(t *testing.T) {
	m := New(DefaultClassifierConfig())
	m.Subscribe(1)
	m.AddBlacklistedDomain("scam.example")

	m.Observe(post("a", 2, "FREE ipad", "http://scam.example/x", 0)) // unsubscribed
	if got := m.Stats().PostsObserved; got != 0 {
		t.Errorf("unsubscribed post observed: %d", got)
	}
	m.Observe(post("a", 1, "FREE ipad", "http://scam.example/x", 0))
	st := m.Stats()
	if st.PostsObserved != 1 || st.AppPosts != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestBlacklistFlagsImmediately(t *testing.T) {
	m := New(DefaultClassifierConfig())
	m.Subscribe(1)
	m.AddBlacklistedDomain("survey-scam.example")
	flagged := m.Observe(post("app1", 1, "check this out", "http://survey-scam.example/win", 5))
	if !flagged {
		t.Error("blacklisted domain should flag on first sight")
	}
	if !m.URLFlagged("http://survey-scam.example/win") {
		t.Error("URLFlagged should report true")
	}
	if !m.AppFlagged("app1") {
		t.Error("app with flagged post should be marked")
	}
}

func TestHeuristicCampaignDetection(t *testing.T) {
	m := New(DefaultClassifierConfig())
	m.SubscribeRange(0, 100)
	link := "http://unknown-scam.example/free"
	// A campaign: identical spammy low-engagement posts of the same URL.
	for i := 0; i < 10; i++ {
		m.Observe(post("scamapp", i, "WOW free 5000 credits, hurry!", link, 0))
	}
	if !m.URLFlagged(link) {
		t.Fatal("campaign URL should be flagged by heuristics")
	}
	if got := m.FlaggedPostCount("scamapp"); got != 10 {
		t.Errorf("retroactive flagged posts = %d, want 10 (all posts of the URL)", got)
	}
}

func TestBenignTrafficNotFlagged(t *testing.T) {
	m := New(DefaultClassifierConfig())
	m.SubscribeRange(0, 100)
	// Benign app posting varied, liked content with facebook-internal links.
	for i := 0; i < 50; i++ {
		m.Observe(post("farmville", i, fmt.Sprintf("I harvested %d crops today!", i),
			"https://apps.facebook.com/onthefarm", 10))
	}
	if m.AppFlagged("farmville") {
		t.Error("benign app flagged")
	}
	st := m.Stats()
	if st.URLsFlagged != 0 {
		t.Errorf("URLsFlagged = %d", st.URLsFlagged)
	}
}

func TestHighEngagementEscapesHeuristic(t *testing.T) {
	m := New(DefaultClassifierConfig())
	m.SubscribeRange(0, 100)
	link := "http://viral-but-fine.example/page"
	// Identical keyword-laden posts, but with organic engagement.
	for i := 0; i < 10; i++ {
		m.Observe(post("viralapp", i, "WIN a free gift!", link, 25))
	}
	if m.URLFlagged(link) {
		t.Error("high-engagement URL should not be flagged by heuristics")
	}
}

func TestVariedMessagesEscapeHeuristic(t *testing.T) {
	m := New(DefaultClassifierConfig())
	m.SubscribeRange(0, 100)
	link := "http://shared-link.example/article"
	for i := 0; i < 10; i++ {
		m.Observe(post("newsapp", i, fmt.Sprintf("my take #%d on this free-market article", i), link, 1))
	}
	if m.URLFlagged(link) {
		t.Error("varied-message URL should not be flagged")
	}
}

func TestMinPostsThreshold(t *testing.T) {
	m := New(DefaultClassifierConfig())
	m.SubscribeRange(0, 10)
	link := "http://maybe-scam.example/x"
	if m.Observe(post("a", 1, "FREE gift hurry", link, 0)) {
		t.Error("single observation should not flag via heuristics")
	}
	m.Observe(post("a", 2, "FREE gift hurry", link, 0))
	if m.URLFlagged(link) {
		t.Error("below MinPosts should not flag")
	}
	m.Observe(post("a", 3, "FREE gift hurry", link, 0))
	if !m.URLFlagged(link) {
		t.Error("at MinPosts with strong signals should flag")
	}
}

func TestExternalLinkAccounting(t *testing.T) {
	m := New(DefaultClassifierConfig())
	m.Subscribe(1)
	m.Observe(post("app", 1, "a", "https://apps.facebook.com/internal", 0))
	m.Observe(post("app", 1, "b", "http://outside.example/x", 0))
	m.Observe(post("app", 1, "c", "", 0))
	as := m.Apps()["app"]
	if as.Posts != 3 {
		t.Errorf("Posts = %d", as.Posts)
	}
	if as.ExternalLinks != 1 {
		t.Errorf("ExternalLinks = %d, want 1", as.ExternalLinks)
	}
	if len(as.Links) != 2 {
		t.Errorf("Links = %v", as.Links)
	}
}

func TestPostsWithoutAppField(t *testing.T) {
	m := New(DefaultClassifierConfig())
	m.Subscribe(1)
	m.Observe(fbplatform.Post{UserID: 1, Message: "manual post", Link: ""})
	st := m.Stats()
	if st.PostsObserved != 1 || st.AppPosts != 0 {
		t.Errorf("stats = %+v", st)
	}
	if len(m.Apps()) != 0 {
		t.Error("manual posts should not create app aggregates")
	}
}

func TestPiggybackedPostAttribution(t *testing.T) {
	// A piggybacked post is attributed to the popular app; MyPageKeeper
	// cannot tell and must charge the popular app.
	m := New(DefaultClassifierConfig())
	m.Subscribe(1)
	m.AddBlacklistedDomain("freecredits.example")
	p := fbplatform.Post{
		AppID:       "farmville",
		SourceAppID: "scamapp",
		UserID:      1,
		Message:     "WOW I just got 5000 Facebook Credits for Free",
		Link:        "http://freecredits.example/go",
	}
	m.Observe(p)
	if !m.AppFlagged("farmville") {
		t.Error("piggybacked post must be charged to the attributed app")
	}
	if m.AppFlagged("scamapp") {
		t.Error("true source is invisible to the monitor")
	}
}

func TestRetroactiveFlagging(t *testing.T) {
	m := New(DefaultClassifierConfig())
	m.SubscribeRange(0, 10)
	link := "http://slow-burn.example/x"
	// First two posts are under the MinPosts threshold: not flagged live.
	m.Observe(post("a", 0, "free gift hurry", link, 0))
	m.Observe(post("a", 1, "free gift hurry", link, 0))
	if m.FlaggedPostCount("a") != 0 {
		t.Fatal("premature flagging")
	}
	m.Observe(post("a", 2, "free gift hurry", link, 0))
	// Now the URL is flagged; ALL THREE posts count.
	if got := m.FlaggedPostCount("a"); got != 3 {
		t.Errorf("retroactive count = %d, want 3", got)
	}
}

func TestConcurrentObserve(t *testing.T) {
	m := New(DefaultClassifierConfig())
	m.SubscribeRange(0, 100)
	m.AddBlacklistedDomain("scam.example")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				m.Observe(post(fmt.Sprintf("app%d", base), (base*100+j)%100,
					"free stuff", "http://scam.example/x", 0))
			}
		}(i)
	}
	wg.Wait()
	if got := m.Stats().PostsObserved; got != 800 {
		t.Errorf("PostsObserved = %d, want 800", got)
	}
	for i := 0; i < 8; i++ {
		if !m.AppFlagged(fmt.Sprintf("app%d", i)) {
			t.Errorf("app%d not flagged", i)
		}
	}
}

func TestSpamKeywordMatching(t *testing.T) {
	if !hasSpamKeyword(normalizeMsg("Get your FREE 450 FACEBOOK CREDITS")) {
		t.Error("FREE should match")
	}
	if hasSpamKeyword(normalizeMsg("I harvested my carrots")) {
		t.Error("benign text should not match")
	}
}

// TestResolverInstalledMidStream: a short link observed before a resolver
// exists is classified by its own domain; once SetResolver expands it to a
// blacklisted domain, its next post is flagged. The per-URL domain cache
// must follow the resolver's answer, not the link alone.
func TestResolverInstalledMidStream(t *testing.T) {
	m := New(DefaultClassifierConfig())
	m.Subscribe(1)
	m.AddBlacklistedDomain("scam.example")
	const short = "http://bit.ly/abc"
	if m.Observe(post("a", 1, "hello", short, 5)) {
		t.Fatal("short link flagged before any resolver could expand it")
	}
	m.SetResolver(func(link string) (string, bool) {
		if link == short {
			return "http://cdn.scam.example/lure", true
		}
		return "", false
	})
	if !m.Observe(post("a", 1, "hello", short, 5)) {
		t.Fatal("short link not flagged once the resolver expands it to a blacklisted domain")
	}
	if as := m.Apps()["a"]; as.ExternalLinks != 2 || as.FlaggedPosts != 2 {
		t.Errorf("app = %+v, want 2 external links and 2 retroactively flagged posts", as)
	}
}
