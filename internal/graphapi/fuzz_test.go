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

// FuzzFeedLimit: for a registered app with up to 1,000 profile posts and
// any limit string, the feed endpoint answers either 400 with the Graph
// API's error document, or, exactly when the limit parses as a positive
// integer, a data list of the app's first posts up to that limit, equal
// to Local.Feed at it. No limit makes the server panic.
func FuzzFeedLimit(f *testing.F) {
	f.Fuzz(func(t *testing.T, limit string, posts uint16) {
		p := fbplatform.New(0)
		app := &fbplatform.App{ID: "7", Name: "Feed", Truth: fbplatform.Truth{HackerID: -1},
			ProfileFeed: make([]fbplatform.ProfilePost, posts%1001)}
		for i := range app.ProfileFeed {
			app.ProfileFeed[i] = fbplatform.ProfilePost{Message: "post " + strconv.Itoa(i), Month: i % 9}
		}
		if err := p.Register(app); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		NewServer(p).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/7/feed?limit="+url.QueryEscape(limit), nil))

		n, err := strconv.Atoi(limit)
		if err != nil || n <= 0 {
			var doc struct {
				Error struct {
					Message string `json:"message"`
				} `json:"error"`
			}
			if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &doc) != nil || doc.Error.Message == "" {
				t.Fatalf("limit %q: status %d, body %q; want 400 with an error message", limit, rec.Code, rec.Body)
			}
			return
		}
		var doc feedDoc
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &doc) != nil {
			t.Fatalf("limit %q: status %d, body %q; want 200 with a feed", limit, rec.Code, rec.Body)
		}
		want, err := Local{Platform: p}.Feed(context.Background(), "7", n)
		if err != nil || len(want) != min(n, len(app.ProfileFeed)) {
			t.Fatalf("Local.Feed at limit %d of %d posts: %d posts, %v", n, len(app.ProfileFeed), len(want), err)
		}
		if !reflect.DeepEqual(doc.Data, want) {
			t.Fatalf("limit %q: served %d posts, Local.Feed %d, or they differ", limit, len(doc.Data), len(want))
		}
	})
}
