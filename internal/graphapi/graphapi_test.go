package graphapi

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
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

func TestSummary(t *testing.T) {
	_, c, done := newTestWorld(t)
	defer done()

	s, err := c.Summary(context.Background(), "102452128776")
	if err != nil {
		t.Fatal(err)
	}
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
	m, err := c.Summary(context.Background(), "235597333185870")
	if err != nil {
		t.Fatal(err)
	}
	if m.Description != "" || m.Company != "" || m.Category != "" {
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
	// Client maps it to ErrDeleted.
	if _, err := c.Summary(context.Background(), "999"); !errors.Is(err, ErrDeleted) {
		t.Errorf("Summary(deleted) err = %v", err)
	}
	if _, err := c.Feed(context.Background(), "999"); !errors.Is(err, ErrDeleted) {
		t.Errorf("Feed(deleted) err = %v", err)
	}
	if _, err := c.Install(context.Background(), "999"); !errors.Is(err, ErrDeleted) {
		t.Errorf("Install(deleted) err = %v", err)
	}
	// Unknown apps behave like deleted ones on the public API.
	if _, err := c.Summary(context.Background(), "does-not-exist"); !errors.Is(err, ErrDeleted) {
		t.Errorf("Summary(unknown) err = %v", err)
	}
}

func TestFeed(t *testing.T) {
	_, c, done := newTestWorld(t)
	defer done()

	posts, err := c.Feed(context.Background(), "102452128776")
	if err != nil {
		t.Fatal(err)
	}
	if len(posts) != 2 || posts[0].Message != "New crops this week!" {
		t.Errorf("feed = %+v", posts)
	}
	// Empty profile feed is an empty list, not an error.
	empty, err := c.Feed(context.Background(), "235597333185870")
	if err != nil {
		t.Fatal(err)
	}
	if len(empty) != 0 {
		t.Errorf("expected empty feed, got %+v", empty)
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
}

// TestInstallFollowsOneRedirect: Install follows the installation URL's
// 302 itself, resolving a relative Location, and follows nothing else: a
// second redirect or any other 3xx is an error, and a 404 on the
// installation URL is a deletion.
func TestInstallFollowsOneRedirect(t *testing.T) {
	landing := `{"app_id":"7","client_id":"8","perms":"email","redirect_uri":"http://x.example/"}`
	cases := []struct {
		name        string
		status      int    // the installation URL's answer
		location    string // its Location header
		wantErr     bool
		wantDeleted bool
	}{
		{name: "302 to the landing page", status: http.StatusFound, location: "/install?app_id=7"},
		{name: "302 to a second redirect", status: http.StatusFound, location: "/again", wantErr: true},
		{name: "301", status: http.StatusMovedPermanently, location: "/install?app_id=7", wantErr: true},
		{name: "302 without Location", status: http.StatusFound, wantErr: true},
		{name: "deleted", status: http.StatusNotFound, wantErr: true, wantDeleted: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch r.URL.Path {
				case "/apps/application.php":
					if tc.location != "" {
						w.Header().Set("Location", tc.location)
					}
					w.WriteHeader(tc.status)
				case "/again":
					http.Redirect(w, r, "/install?app_id=7", http.StatusFound)
				case "/install":
					io.WriteString(w, landing)
				default:
					http.NotFound(w, r)
				}
			}))
			defer srv.Close()
			c := &Client{BaseURL: srv.URL, HTTP: httpx.New(httpx.Config{MaxAttempts: 1, Telemetry: telemetry.New()})}
			info, err := c.Install(context.Background(), "7")
			if (err != nil) != tc.wantErr || errors.Is(err, ErrDeleted) != tc.wantDeleted {
				t.Fatalf("Install = %+v, %v; want error %v, deleted %v", info, err, tc.wantErr, tc.wantDeleted)
			}
			if err == nil && (info.ClientID != "8" || len(info.Permissions) != 1 || info.Permissions[0] != "email") {
				t.Errorf("landing page scraped as %+v", info)
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
// surfaces. A nil and an empty list count as equal.
func TestLocalAnswersWhatClientDecodes(t *testing.T) {
	p, c, done := newTestWorld(t)
	defer done()
	if err := p.Register(&fbplatform.App{ID: "31337", Name: "Bare", Truth: fbplatform.Truth{HackerID: -1}}); err != nil {
		t.Fatal(err)
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
	emptyAsNil := func(posts []FeedPost) []FeedPost {
		if len(posts) == 0 {
			return nil
		}
		return posts
	}
	for _, id := range []string{"102452128776", "31337", "999", "does-not-exist"} {
		ls, lerr := local.Summary(ctx, id)
		cs, cerr := c.Summary(ctx, id)
		same(id, "summary", ls, cs, lerr, cerr)

		lf, lerr := local.Feed(ctx, id)
		cf, cerr := c.Feed(ctx, id)
		same(id, "feed", emptyAsNil(lf), emptyAsNil(cf), lerr, cerr)

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
	if s, err := local.Summary(ctx, "102452128776"); err != nil || s.Name != "FarmVille" {
		t.Errorf("Local summary of the live app = %+v, %v", s, err)
	}
	if _, err := local.Install(ctx, "999"); !errors.Is(err, ErrDeleted) {
		t.Errorf("Local install of the deleted app: err %v, want ErrDeleted", err)
	}
}
