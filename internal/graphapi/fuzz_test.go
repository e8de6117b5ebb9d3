package graphapi

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"frappe/internal/fbplatform"
)

// FuzzInstallRedirect: for any app ID, client ID, redirect URI and
// non-empty, comma-free permission names (perms split at its commas), the
// Location that the installation URL writes reads back as the same
// InstallInfo, or as an error when the app ID is empty. No string, read
// as a Location, makes the parse panic or yield an empty app ID.
func FuzzInstallRedirect(f *testing.F) {
	f.Fuzz(func(t *testing.T, appID, clientID, redirectURI, perms string) {
		for _, loc := range []string{appID, clientID, redirectURI, perms} {
			if info, err := installFromLocation(loc); err == nil && info.AppID == "" {
				t.Fatalf("installFromLocation(%q) = %+v with no app ID", loc, info)
			}
		}
		want := InstallInfo{AppID: appID, ClientID: clientID, RedirectURI: redirectURI}
		if names := strings.FieldsFunc(perms, func(r rune) bool { return r == ',' }); len(names) > 0 {
			want.Permissions = names
		}
		rec := httptest.NewRecorder()
		writeInstallRedirect(rec, httptest.NewRequest(http.MethodGet, "/apps/application.php?id=1", nil), fbplatform.InstallInfo(want))
		loc := rec.Header().Get("Location")
		got, err := installFromLocation(loc)
		if appID == "" {
			if err == nil {
				t.Fatalf("Location %q with an empty app ID read as %+v", loc, got)
			}
			return
		}
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("Location %q read as %+v, %v; want %+v", loc, got, err, want)
		}
	})
}

// fuzzPlatform registers app 7 with posts%1001 profile posts.
func fuzzPlatform(t *testing.T, posts uint16) (*fbplatform.Platform, int) {
	t.Helper()
	p := fbplatform.New(0)
	app := &fbplatform.App{ID: "7", Name: "Feed", Category: "Games", MAU: []int{4, 5}, Truth: fbplatform.Truth{HackerID: -1},
		ProfileFeed: make([]fbplatform.ProfilePost, posts%1001)}
	for i := range app.ProfileFeed {
		app.ProfileFeed[i] = fbplatform.ProfilePost{Message: "post " + strconv.Itoa(i), Month: i % 9}
	}
	if err := p.Register(app); err != nil {
		t.Fatal(err)
	}
	return p, len(app.ProfileFeed)
}

// isErrorDoc reports whether rec holds a 400 with the Graph API's error
// document.
func isErrorDoc(rec *httptest.ResponseRecorder) bool {
	var doc struct {
		Error struct {
			Message string `json:"message"`
		} `json:"error"`
	}
	return rec.Code == http.StatusBadRequest && json.Unmarshal(rec.Body.Bytes(), &doc) == nil && doc.Error.Message != ""
}

// FuzzFeedLimit: for a registered app with up to 1,000 profile posts and
// any limit string, the feed endpoint answers either 400 with the Graph
// API's error document, or, exactly when the limit parses as a positive
// integer, a data list of the app's first posts up to that limit, equal
// to the feed of Local's node read at it. No limit makes the server
// panic.
func FuzzFeedLimit(f *testing.F) {
	f.Fuzz(func(t *testing.T, limit string, posts uint16) {
		p, feed := fuzzPlatform(t, posts)
		rec := httptest.NewRecorder()
		NewServer(p).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/7/feed?limit="+url.QueryEscape(limit), nil))

		n, err := strconv.Atoi(limit)
		if err != nil || n <= 0 {
			if !isErrorDoc(rec) {
				t.Fatalf("limit %q: status %d, body %q; want 400 with an error message", limit, rec.Code, rec.Body)
			}
			return
		}
		var doc feedDoc
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &doc) != nil {
			t.Fatalf("limit %q: status %d, body %q; want 200 with a feed", limit, rec.Code, rec.Body)
		}
		want, err := Local{Platform: p}.Node(context.Background(), "7", n)
		if err != nil || len(want.Feed) != min(n, feed) {
			t.Fatalf("Local.Node at feed limit %d of %d posts: %d posts, %v", n, feed, len(want.Feed), err)
		}
		if !reflect.DeepEqual(doc.Data, want.Feed) {
			t.Fatalf("limit %q: served %d posts, Local.Node %d, or they differ", limit, len(doc.Data), len(want.Feed))
		}
	})
}

// FuzzNodeFields: for a registered app with up to 1,000 profile posts and
// any fields string, the node route answers either 400 with the Graph
// API's error document, or 200 with a document whose summary is Local's
// and whose feed is the feed of Local's node read at the limit the list
// parses to, absent when the list names no feed. A list that parses
// names only the summary's fields, feed and feed.limit(N). No string
// makes the server panic.
func FuzzNodeFields(f *testing.F) {
	f.Fuzz(func(t *testing.T, fields string, posts uint16) {
		p, feed := fuzzPlatform(t, posts)
		rec := httptest.NewRecorder()
		NewServer(p).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/7?fields="+url.QueryEscape(fields), nil))

		n, err := parseFields(fields)
		if err != nil {
			if !isErrorDoc(rec) {
				t.Fatalf("fields %q: status %d, body %q; want 400 with an error message", fields, rec.Code, rec.Body)
			}
			return
		}
		for _, name := range strings.Split(fields, ",") {
			if !strings.Contains(","+summaryFields+",", ","+name+",") && name != "feed" &&
				!(strings.HasPrefix(name, "feed.limit(") && strings.HasSuffix(name, ")")) {
				t.Fatalf("fields %q parsed, though it names %q", fields, name)
			}
		}
		var doc nodeDoc
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &doc) != nil {
			t.Fatalf("fields %q: status %d, body %q; want 200 with a node", fields, rec.Code, rec.Body)
		}
		want, err := Local{Platform: p}.Node(context.Background(), "7", max(n, 0))
		if err != nil || !reflect.DeepEqual(&doc.Summary, want.Summary) {
			t.Fatalf("fields %q: served summary %+v, Local.Node %+v, %v", fields, doc.Summary, want.Summary, err)
		}
		switch {
		case n == 0 && doc.Feed != nil:
			t.Fatalf("fields %q name no feed, yet the node carries %d posts", fields, len(doc.Feed.Data))
		case n != 0 && (doc.Feed == nil || !reflect.DeepEqual(doc.Feed.Data, want.Feed)):
			t.Fatalf("fields %q: served feed %+v, Local.Node %d posts", fields, doc.Feed, len(want.Feed))
		case n > 0 && len(want.Feed) != min(n, feed), n < 0 && len(want.Feed) != feed:
			t.Fatalf("fields %q: Local.Node read %d of %d posts at %d", fields, len(want.Feed), feed, n)
		}
	})
}
