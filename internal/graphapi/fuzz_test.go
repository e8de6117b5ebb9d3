package graphapi

import (
	"net/http"
	"net/http/httptest"
	"reflect"
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
