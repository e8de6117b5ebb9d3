package graphapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"frappe/internal/fbplatform"
	"frappe/internal/httpx"
	"frappe/internal/telemetry"
)

func newTestWorld(t *testing.T) (*fbplatform.Platform, *Client, func()) {
	t.Helper()
	p := fbplatform.New(1000)
	apps := []*fbplatform.App{
		{
			ID:          "235597333185870",
			Name:        "What Does Your Name Mean?",
			Permissions: []string{fbplatform.PermPublishStream},
			RedirectURI: "http://thenamemeans2.com/land",
			ClientID:    "159474410806928",
			Truth:       fbplatform.Truth{Malicious: true, HackerID: 1},
		},
		{
			ID:          "102452128776",
			Name:        "FarmVille",
			Description: "Farm with your friends",
			Company:     "Zynga",
			Category:    "Games",
			Permissions: []string{fbplatform.PermPublishStream, fbplatform.PermEmail, fbplatform.PermOfflineAccess},
			RedirectURI: "https://apps.facebook.com/onthefarm",
			MAU:         []int{26000000, 26500000},
			ProfileFeed: []fbplatform.ProfilePost{
				{Message: "New crops this week!", Month: 3},
				{Message: "Maintenance tonight", Month: 4},
			},
			Truth: fbplatform.Truth{HackerID: -1},
		},
		{
			ID:          "999",
			Name:        "Removed Scam",
			Permissions: []string{fbplatform.PermPublishStream},
			Truth:       fbplatform.Truth{Malicious: true, HackerID: 2},
		},
	}
	for _, a := range apps {
		if err := p.Register(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Delete("999"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(p))
	return p, &Client{BaseURL: srv.URL}, srv.Close
}

// TestSummary: the node read's summary carries the app's fields and its
// latest MAU sample.
func TestSummary(t *testing.T) {
	_, c, done := newTestWorld(t)
	defer done()

	n, err := c.Node(context.Background(), "102452128776", 1)
	if err != nil {
		t.Fatal(err)
	}
	s := n.Summary
	if s.Name != "FarmVille" || s.Company != "Zynga" || s.Category != "Games" {
		t.Errorf("summary = %+v", s)
	}
	if s.MonthlyActiveUsers != 26500000 {
		t.Errorf("MAU = %d, want latest sample", s.MonthlyActiveUsers)
	}
	if !strings.Contains(s.Link, "102452128776") {
		t.Errorf("Link = %q", s.Link)
	}
	// Malicious app with empty summary fields.
	n, err = c.Node(context.Background(), "235597333185870", 1)
	if err != nil {
		t.Fatal(err)
	}
	if m := n.Summary; m.Description != "" || m.Company != "" || m.Category != "" {
		t.Errorf("malicious summary should be empty: %+v", m)
	}
}

func TestDeletedReturnsFalseBody(t *testing.T) {
	_, c, done := newTestWorld(t)
	defer done()

	// Raw HTTP: the body must be the literal `false`, like the 2012 API.
	resp, err := http.Get(c.BaseURL + "/999")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "false" {
		t.Errorf("deleted app: status=%d body=%q", resp.StatusCode, body)
	}
	// Client maps it to ErrDeleted, at any feed limit.
	for _, limit := range []int{0, 1} {
		if _, err := c.Node(context.Background(), "999", limit); !errors.Is(err, ErrDeleted) {
			t.Errorf("Node(deleted, %d) err = %v", limit, err)
		}
	}
	if _, err := c.Install(context.Background(), "999"); !errors.Is(err, ErrDeleted) {
		t.Errorf("Install(deleted) err = %v", err)
	}
	// Unknown apps behave like deleted ones on the public API.
	if _, err := c.Node(context.Background(), "does-not-exist", 1); !errors.Is(err, ErrDeleted) {
		t.Errorf("Node(unknown) err = %v", err)
	}
}

// TestFeed: the node read brings the whole feed at limit 0 and its first
// posts at a positive limit.
func TestFeed(t *testing.T) {
	_, c, done := newTestWorld(t)
	defer done()

	n, err := c.Node(context.Background(), "102452128776", 0)
	if err != nil {
		t.Fatal(err)
	}
	if posts := n.Feed; len(posts) != 2 || posts[0].Message != "New crops this week!" {
		t.Errorf("feed = %+v", posts)
	}
	if n, err = c.Node(context.Background(), "102452128776", 1); err != nil || len(n.Feed) != 1 {
		t.Errorf("feed at limit 1 = %+v, %v; want its first post", n.Feed, err)
	}
	// Empty profile feed is an empty list, not an error.
	n, err = c.Node(context.Background(), "235597333185870", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Feed) != 0 {
		t.Errorf("expected empty feed, got %+v", n.Feed)
	}
}

func TestInstall(t *testing.T) {
	_, c, done := newTestWorld(t)
	defer done()

	info, err := c.Install(context.Background(), "235597333185870")
	if err != nil {
		t.Fatal(err)
	}
	if info.ClientID != "159474410806928" {
		t.Errorf("client_id = %q", info.ClientID)
	}
	if info.AppID != "235597333185870" {
		t.Errorf("app_id = %q", info.AppID)
	}
	if len(info.Permissions) != 1 || info.Permissions[0] != fbplatform.PermPublishStream {
		t.Errorf("perms = %v", info.Permissions)
	}
	if info.RedirectURI != "http://thenamemeans2.com/land" {
		t.Errorf("redirect = %q", info.RedirectURI)
	}

	benign, err := c.Install(context.Background(), "102452128776")
	if err != nil {
		t.Fatal(err)
	}
	if benign.ClientID != benign.AppID {
		t.Errorf("benign client_id mismatch: %+v", benign)
	}
	if len(benign.Permissions) != 3 {
		t.Errorf("benign perms = %v", benign.Permissions)
	}

	// The 302 leads off the simulator, to Facebook's permission dialog: a
	// path on the simulator would answer as the summary of an app named
	// after it, which reads as deleted.
	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	resp, err := noFollow.Get(c.BaseURL + "/apps/application.php?id=102452128776")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	loc, err := url.Parse(resp.Header.Get("Location"))
	if err != nil {
		t.Fatal(err)
	}
	simulator, err := url.Parse(c.BaseURL)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusFound || !loc.IsAbs() || loc.Host == simulator.Host {
		t.Errorf("installation URL answered %d with Location %q; want a 302 to an absolute URL off %s", resp.StatusCode, loc, simulator.Host)
	}
}

// TestInstallReadsRedirect: Install reads the install parameters from the
// installation URL's 302 Location, relative or absolute, and fetches
// nothing else: the fake server fails the test on any other request. A
// Location without app_id, any other 3xx, a 302 without Location and a
// 200 are errors, and a 404 is a deletion.
func TestInstallReadsRedirect(t *testing.T) {
	const query = "app_id=7&client_id=8&perms=email%2Cuser_likes&redirect_uri=http%3A%2F%2Fx.example%2F%3Fa%3D1"
	landing := `{"app_id":"7","client_id":"8","perms":"email","redirect_uri":"http://x.example/"}`
	cases := []struct {
		name        string
		status      int    // the installation URL's answer
		location    string // its Location header; {server} is the server's own URL
		wantErr     bool
		wantDeleted bool
	}{
		{name: "relative Location", status: http.StatusFound, location: "/install?" + query},
		{name: "absolute Location", status: http.StatusFound, location: "{server}/install?" + query},
		{name: "Location without app_id", status: http.StatusFound, location: "/install?client_id=8&perms=email", wantErr: true},
		{name: "301", status: http.StatusMovedPermanently, location: "/install?" + query, wantErr: true},
		{name: "302 without Location", status: http.StatusFound, wantErr: true},
		{name: "200", status: http.StatusOK, wantErr: true},
		{name: "deleted", status: http.StatusNotFound, wantErr: true, wantDeleted: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var requests atomic.Int32
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				requests.Add(1)
				if r.URL.Path != "/apps/application.php" {
					t.Errorf("unexpected request for %s", r.URL)
					http.NotFound(w, r)
					return
				}
				if tc.location != "" {
					w.Header().Set("Location", strings.ReplaceAll(tc.location, "{server}", "http://"+r.Host))
				}
				w.WriteHeader(tc.status)
				if tc.status == http.StatusOK {
					io.WriteString(w, landing)
				}
			}))
			defer srv.Close()
			c := &Client{BaseURL: srv.URL, HTTP: httpx.New(httpx.Config{MaxAttempts: 1, Telemetry: telemetry.New()})}
			info, err := c.Install(context.Background(), "7")
			if (err != nil) != tc.wantErr || errors.Is(err, ErrDeleted) != tc.wantDeleted {
				t.Fatalf("Install = %+v, %v; want error %v, deleted %v", info, err, tc.wantErr, tc.wantDeleted)
			}
			want := InstallInfo{AppID: "7", ClientID: "8", Permissions: []string{"email", "user_likes"}, RedirectURI: "http://x.example/?a=1"}
			if err == nil && !reflect.DeepEqual(info, want) {
				t.Errorf("Install = %+v, want %+v", info, want)
			}
			if n := requests.Load(); n != 1 {
				t.Errorf("requests = %d, want 1", n)
			}
		})
	}
}

func TestInstallMissingID(t *testing.T) {
	_, c, done := newTestWorld(t)
	defer done()
	resp, err := http.Get(c.BaseURL + "/apps/application.php")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing id status = %d", resp.StatusCode)
	}
}

// TestFeedLimitParam: the feed's limit must be a positive integer; any
// other value answers 400 with the Graph API's error document, and a
// deleted app still answers false at a valid limit.
func TestFeedLimitParam(t *testing.T) {
	_, c, done := newTestWorld(t)
	defer done()
	for _, q := range []string{"limit=0", "limit=-1", "limit=abc", "limit=1.5", "limit=", "limit=99999999999999999999", "limit=%zz"} {
		t.Run(q, func(t *testing.T) {
			resp, err := http.Get(c.BaseURL + "/102452128776/feed?" + q)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var doc struct {
				Error struct {
					Message string `json:"message"`
				} `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil || resp.StatusCode != http.StatusBadRequest || doc.Error.Message == "" {
				t.Errorf("status %d, error document %+v (%v); want 400 with a message", resp.StatusCode, doc, err)
			}
		})
	}
	resp, err := http.Get(c.BaseURL + "/999/feed?limit=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "false" {
		t.Errorf("deleted app at limit 1: status %d, body %q; want 200 false", resp.StatusCode, body)
	}
}

func TestUnknownPath(t *testing.T) {
	_, c, done := newTestWorld(t)
	defer done()
	resp, err := http.Get(c.BaseURL + "/a/b/c")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("deep path status = %d", resp.StatusCode)
	}
}

// TestLocalAnswersWhatClientDecodes: the in-process Graph API the dataset
// build crawls through reads, for a live app, a sparse one (no
// description, feed or permissions), a deleted one and an unknown ID,
// what Client decodes from Server over HTTP, with ErrDeleted on the same
// surfaces. A nil and an empty list count as equal. The install cases
// cover what a Location parse can get wrong: redirect URIs holding a
// query, an escaped slash, a plus, a space, a fragment or non-ASCII
// text, an app with no permissions, and client IDs that differ from the
// app ID. The node read is compared at feed limits 0 (the whole feed), 1
// and 2, on apps with 0, 1, 2, 3 and 900 posts, and a limited feed must
// be the whole feed's first posts.
func TestLocalAnswersWhatClientDecodes(t *testing.T) {
	p, c, done := newTestWorld(t)
	defer done()
	ids := []string{"102452128776", "235597333185870", "999", "does-not-exist"}
	posts := func(n int) []fbplatform.ProfilePost {
		feed := make([]fbplatform.ProfilePost, n)
		for i := range feed {
			feed[i] = fbplatform.ProfilePost{Message: fmt.Sprintf("interesting read %d", i), Link: fmt.Sprintf("http://p.example/%d", i), Month: i % 9}
		}
		return feed
	}
	for _, a := range []*fbplatform.App{
		{ID: "51", ProfileFeed: posts(1)},
		{ID: "53", ProfileFeed: posts(3)},
		{ID: "59", ProfileFeed: posts(900)},
		{ID: "31337"},
		{ID: "41", Permissions: []string{fbplatform.PermEmail, fbplatform.PermUserBirthday}, RedirectURI: "http://q.example/land?a=1&b=2"},
		{ID: "42", Permissions: []string{fbplatform.PermEmail}, RedirectURI: "http://q.example/a%2Fb"},
		{ID: "43", Permissions: []string{fbplatform.PermEmail}, RedirectURI: "http://q.example/a+b?c=d+e"},
		{ID: "44", Permissions: []string{fbplatform.PermEmail}, RedirectURI: "http://q.example/a b"},
		{ID: "45", Permissions: []string{fbplatform.PermEmail}, RedirectURI: "http://q.example/land#frag"},
		{ID: "46", Permissions: []string{fbplatform.PermEmail}, RedirectURI: "http://bücher.example/café?q=日本"},
		{ID: "47", RedirectURI: "https://apps.facebook.com/no-perms"},
		{ID: "48", ClientID: "159474410806928", Permissions: []string{fbplatform.PermPublishStream}, RedirectURI: "http://other.example/"},
	} {
		a.Name, a.Truth = "Edge "+a.ID, fbplatform.Truth{HackerID: -1}
		if err := p.Register(a); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, a.ID)
	}
	local := Local{Platform: p}
	ctx := context.Background()
	same := func(id, surface string, lv, cv any, lerr, cerr error) {
		t.Helper()
		if errors.Is(lerr, ErrDeleted) != errors.Is(cerr, ErrDeleted) || (lerr == nil) != (cerr == nil) {
			t.Errorf("%s %s: Local err %v, Client err %v", id, surface, lerr, cerr)
		}
		if !reflect.DeepEqual(lv, cv) {
			t.Errorf("%s %s: Local %+v, Client %+v", id, surface, lv, cv)
		}
	}
	emptyAsNil := func(n Node) Node {
		if len(n.Feed) == 0 {
			n.Feed = nil
		}
		return n
	}
	for _, id := range ids {
		for _, limit := range []int{0, 1, 2} {
			ln, lerr := local.Node(ctx, id, limit)
			cn, cerr := c.Node(ctx, id, limit)
			same(id, fmt.Sprintf("node at feed limit %d", limit), emptyAsNil(ln), emptyAsNil(cn), lerr, cerr)
		}

		li, lerr := local.Install(ctx, id)
		ci, cerr := c.Install(ctx, id)
		if len(li.Permissions) == 0 {
			li.Permissions = nil
		}
		if len(ci.Permissions) == 0 {
			ci.Permissions = nil
		}
		same(id, "install", li, ci, lerr, cerr)
	}
	if n, err := local.Node(ctx, "102452128776", 1); err != nil || n.Summary.Name != "FarmVille" || len(n.Feed) != 1 {
		t.Errorf("Local node of the live app = %+v, %v", n, err)
	}
	if _, err := local.Install(ctx, "999"); !errors.Is(err, ErrDeleted) {
		t.Errorf("Local install of the deleted app: err %v, want ErrDeleted", err)
	}
	for id, n := range map[string]int{"51": 1, "53": 3, "59": 900} {
		whole, err := local.Node(ctx, id, 0)
		if err != nil || len(whole.Feed) != n {
			t.Fatalf("Local feed of %s: %d posts, %v; want %d", id, len(whole.Feed), err, n)
		}
		for _, limit := range []int{1, 2} {
			if f, err := local.Node(ctx, id, limit); err != nil || !reflect.DeepEqual(f.Feed, whole.Feed[:min(limit, n)]) {
				t.Errorf("Local feed of %s at limit %d: %d posts, %v; want the first %d", id, limit, len(f.Feed), err, min(limit, n))
			}
		}
	}
}

// TestNodeFields: the node route reads the Graph API's fields parameter.
// Without it, and with summary names only, the document is the summary
// in today's bytes. With feed or feed.limit(N) listed it carries the feed
// document under "feed": the whole feed, the first N posts, or [] when
// there are none. Any other list, and a query that does not decode,
// answers 400 with the Graph API's error document, before the app is
// looked up; a deleted app answers false to a valid list.
func TestNodeFields(t *testing.T) {
	_, c, done := newTestWorld(t)
	defer done()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(c.BaseURL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	const summary = `{"id":"102452128776","name":"FarmVille","description":"Farm with your friends","company":"Zynga","category":"Games",` +
		`"link":"https://www.facebook.com/apps/application.php?id=102452128776","monthly_active_users":26500000`
	const post1 = `{"message":"New crops this week!","created_time":3}`
	const post2 = `{"message":"Maintenance tonight","created_time":4}`
	for _, tc := range []struct{ path, want string }{
		{"/102452128776", summary + "}\n"},
		{"/102452128776?fields=id", summary + "}\n"},
		{"/102452128776?fields=" + summaryFields, summary + "}\n"},
		{"/102452128776?fields=id,id,name", summary + "}\n"},
		{"/102452128776?fields=feed", summary + `,"feed":{"data":[` + post1 + "," + post2 + "]}}\n"},
		{"/102452128776?fields=feed.limit(1),name", summary + `,"feed":{"data":[` + post1 + "]}}\n"},
		{"/102452128776?fields=" + summaryFields + ",feed.limit(1)", summary + `,"feed":{"data":[` + post1 + "]}}\n"},
		{"/102452128776?fields=feed.limit(%2B5)", summary + `,"feed":{"data":[` + post1 + "," + post2 + "]}}\n"},
		{"/235597333185870?fields=id,feed.limit(1)", `{"id":"235597333185870","name":"What Does Your Name Mean?",` +
			`"link":"https://www.facebook.com/apps/application.php?id=235597333185870","monthly_active_users":0,"feed":{"data":[]}}` + "\n"},
		{"/999?fields=id,feed.limit(1)", "false"},
		{"/does-not-exist?fields=feed", "false"},
	} {
		if status, body := get(tc.path); status != http.StatusOK || body != tc.want {
			t.Errorf("%s: status %d, body %q; want 200, %q", tc.path, status, body, tc.want)
		}
	}
	for _, fields := range []string{
		"likes", "ID", "", ",", "id,,name", "id,", "id, name", "feed,feed", "feed,feed.limit(1)", "feed.limit(1),feed.limit(2)",
		"feed.limit(0)", "feed.limit(-1)", "feed.limit(x)", "feed.limit(1.5)", "feed.limit()", "feed.limit(99999999999999999999)",
		"feed.limit(1", "feed.limit(1))", "feed.limit(1){message}", "feed{message}",
	} {
		for _, id := range []string{"102452128776", "999"} {
			path := "/" + id + "?fields=" + url.QueryEscape(fields)
			status, body := get(path)
			var doc struct {
				Error struct {
					Message string `json:"message"`
				} `json:"error"`
			}
			if err := json.Unmarshal([]byte(body), &doc); err != nil || status != http.StatusBadRequest || doc.Error.Message == "" {
				t.Errorf("%s: status %d, body %q; want 400 with an error message", path, status, body)
			}
		}
	}
	if status, _ := get("/102452128776?fields=%zz"); status != http.StatusBadRequest {
		t.Errorf("undecodable query: status %d, want 400", status)
	}
}

// TestNodeWithoutFeedIsAnError: Client.Node asks for the feed, so a node
// document without one is a decoding error, not an empty feed, and not a
// deletion.
func TestNodeWithoutFeedIsAnError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"id":"7","name":"No feed","link":"x","monthly_active_users":3}`)
	}))
	defer srv.Close()
	c := &Client{BaseURL: srv.URL, HTTP: httpx.New(httpx.Config{MaxAttempts: 1, Telemetry: telemetry.New()})}
	if n, err := c.Node(context.Background(), "7", 1); err == nil || errors.Is(err, ErrDeleted) {
		t.Errorf("Node = %+v, %v; want a decoding error", n, err)
	}
}

// TestNodeReadCopiesWhatItServes: a feed.limit(1) node read of an app
// with 900 posts allocates no more, in count and within 1 KB in bytes,
// than one of an app with one post: the simulator copies only the posts
// it serves, not the app's whole feed.
func TestNodeReadCopiesWhatItServes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocations are not comparable under the race detector")
	}
	p := fbplatform.New(0)
	for id, n := range map[string]int{"1": 1, "9": 900} {
		app := &fbplatform.App{ID: id, Name: "Chatty", Truth: fbplatform.Truth{HackerID: -1}, ProfileFeed: make([]fbplatform.ProfilePost, n)}
		for i := range app.ProfileFeed {
			app.ProfileFeed[i] = fbplatform.ProfilePost{Message: "the same post", Link: "http://p.example/", Month: 2}
		}
		if err := p.Register(app); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer(p)
	read := func(id string) func() {
		req := httptest.NewRequest(http.MethodGet, "/"+id+"?fields="+summaryFields+",feed.limit(1)", nil)
		return func() { srv.ServeHTTP(httptest.NewRecorder(), req) }
	}
	const runs = 200
	bytesPerRun := func(f func()) float64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		f()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	one, many := testing.AllocsPerRun(runs, read("1")), testing.AllocsPerRun(runs, read("9"))
	if many > one {
		t.Errorf("a feed.limit(1) read allocates %.1f times for 900 posts, %.1f for 1", many, one)
	}
	oneB, manyB := bytesPerRun(read("1")), bytesPerRun(read("9"))
	if manyB > oneB+1024 {
		t.Errorf("a feed.limit(1) read allocates %.0f bytes for 900 posts, %.0f for 1", manyB, oneB)
	}
}

// TestReadsRaceDelete: the node route, the feed route and Local.Node read
// apps while Platform.Delete removes them. Under -race nothing races;
// every read answers the app or the deleted signal, and once the apps are
// deleted every read answers deleted.
func TestReadsRaceDelete(t *testing.T) {
	p := fbplatform.New(0)
	const apps = 8
	for i := 0; i < apps; i++ {
		app := &fbplatform.App{ID: fmt.Sprint(i), Name: "Racy", MAU: []int{1, 2}, Truth: fbplatform.Truth{HackerID: -1},
			ProfileFeed: []fbplatform.ProfilePost{{Message: "a"}, {Message: "b"}, {Message: "c"}}}
		if err := p.Register(app); err != nil {
			t.Fatal(err)
		}
	}
	srv, local := NewServer(p), Local{Platform: p}
	read := func(id string) {
		for _, path := range []string{"/" + id + "?fields=id,feed.limit(1)", "/" + id + "/feed?limit=2", "/" + id} {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
				t.Errorf("%s: status %d, body %q", path, rec.Code, rec.Body)
			}
		}
		if n, err := local.Node(context.Background(), id, 1); err == nil && len(n.Feed) != 1 || err != nil && !errors.Is(err, ErrDeleted) {
			t.Errorf("Local node of %s: %+v, %v", id, n, err)
		}
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 200; i++ {
				read(fmt.Sprint(i % apps))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < apps; i++ {
			if err := p.Delete(fmt.Sprint(i)); err != nil {
				t.Errorf("Delete: %v", err)
			}
			runtime.Gosched()
		}
	}()
	close(start)
	wg.Wait()
	for i := 0; i < apps; i++ {
		id := fmt.Sprint(i)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/"+id+"?fields=feed", nil))
		if body := rec.Body.String(); body != "false" {
			t.Errorf("deleted app %s: node body %q, want false", id, body)
		}
		if _, err := local.Node(context.Background(), id, 0); !errors.Is(err, ErrDeleted) {
			t.Errorf("deleted app %s: Local node err %v, want ErrDeleted", id, err)
		}
	}
}
