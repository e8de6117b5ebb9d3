// Package graphapi exposes a simulated Facebook platform over HTTP with the
// three surfaces the paper's crawlers hit (§2.3, Table 4):
//
//	GET /{appID}                       — app summary (Open Graph API)
//	GET /{appID}/feed                  — posts on the app's profile page
//	GET /{appID}/feed?limit=N          — its first N posts (N a positive
//	                                     integer; any other value is a 400)
//	GET /apps/application.php?id=A     — installation URL; a 302 to
//	                                     Facebook's permission dialog whose
//	                                     query carries app_id, client_id,
//	                                     the permission set, and the
//	                                     redirect URI, which Client reads
//	                                     without fetching it
//
// Faithful quirk: like the 2012 Graph API, summary and feed lookups for
// apps that have been removed from the Facebook graph return HTTP 200 with
// the literal JSON body `false` — this is the "deleted from Facebook
// graph" signal that validates 81% of FRAppE's detections in §5.3.
package graphapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"frappe/internal/fbplatform"
)

// Summary is the JSON document served for an app, mirroring the fields the
// paper extracts: name, description, company, category, monthly active
// users, and the profile link.
type Summary struct {
	ID                 string `json:"id"`
	Name               string `json:"name"`
	Description        string `json:"description,omitempty"`
	Company            string `json:"company,omitempty"`
	Category           string `json:"category,omitempty"`
	Link               string `json:"link"`
	MonthlyActiveUsers int    `json:"monthly_active_users"`
}

// FeedPost is one post on an app's profile page.
type FeedPost struct {
	Message     string `json:"message"`
	Link        string `json:"link,omitempty"`
	CreatedTime int    `json:"created_time"` // month index in the observation window
}

type feedDoc struct {
	Data []FeedPost `json:"data"`
}

// Server serves the Graph API for one Platform.
type Server struct {
	Platform *fbplatform.Platform
	// PostSink receives every post created through the write endpoints
	// (/me/feed and /connect/prompt_feed.php); internal/stack wires it to
	// MyPageKeeper's Observe, putting HTTP-created posts on monitored
	// walls. It must be safe for concurrent use. Nil drops the posts.
	PostSink func(fbplatform.Post)
}

// NewServer returns a Server backed by p.
func NewServer(p *fbplatform.Platform) *Server {
	return &Server{Platform: p}
}

// ServeHTTP routes the three endpoint families.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := strings.Trim(r.URL.Path, "/")
	switch {
	case path == "apps/application.php":
		s.serveInstall(w, r)
	case path == "oauth/install":
		s.serveOAuthInstall(w, r)
	case path == "me/feed":
		s.serveMeFeed(w, r)
	case path == "connect/prompt_feed.php":
		s.servePromptFeed(w, r)
	case strings.HasSuffix(path, "/feed"):
		s.serveFeed(w, r, strings.TrimSuffix(path, "/feed"))
	case path != "" && !strings.Contains(path, "/"):
		s.serveSummary(w, r, path)
	default:
		http.NotFound(w, r)
	}
}

// writeFalse emits the Graph API's `false` body for missing nodes.
func writeFalse(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte("false"))
}

// summaryOf is the summary document for a live app.
func summaryOf(app *fbplatform.App) Summary {
	mau := 0
	if len(app.MAU) > 0 {
		mau = app.MAU[len(app.MAU)-1]
	}
	return Summary{
		ID:                 app.ID,
		Name:               app.Name,
		Description:        app.Description,
		Company:            app.Company,
		Category:           app.Category,
		Link:               "https://www.facebook.com/apps/application.php?id=" + app.ID,
		MonthlyActiveUsers: mau,
	}
}

// feedOf is the profile-feed document for a live app: its first limit
// posts, or all of them when limit <= 0. An empty feed is an empty list,
// not null.
func feedOf(app *fbplatform.App, limit int) feedDoc {
	posts := app.ProfileFeed
	if limit > 0 && limit < len(posts) {
		posts = posts[:limit]
	}
	doc := feedDoc{Data: make([]FeedPost, 0, len(posts))}
	for _, p := range posts {
		doc.Data = append(doc.Data, FeedPost{Message: p.Message, Link: p.Link, CreatedTime: p.Month})
	}
	return doc
}

func (s *Server) serveSummary(w http.ResponseWriter, _ *http.Request, id string) {
	app, err := s.Platform.Lookup(id)
	if err != nil {
		writeFalse(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(summaryOf(app))
}

func (s *Server) serveFeed(w http.ResponseWriter, r *http.Request, id string) {
	limit, err := feedLimit(r.URL.RawQuery)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	app, err := s.Platform.Lookup(id)
	if err != nil {
		writeFalse(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(feedOf(app, limit))
}

// feedLimit reads the feed's limit parameter: 0 (the whole feed) when
// the query has none, a positive integer otherwise. A query that does not
// decode is an error too, so an undecodable limit is not read as none.
func feedLimit(rawQuery string) (int, error) {
	q, err := url.ParseQuery(rawQuery)
	if err != nil {
		return 0, fmt.Errorf("malformed query: %w", err)
	}
	v, ok := q["limit"]
	if !ok {
		return 0, nil
	}
	n, err := strconv.Atoi(v[0])
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("limit must be a positive integer, not %q", v[0])
	}
	return n, nil
}

// serveInstall models visiting the installation URL: Facebook consults the
// app server and redirects the browser to a URL encoding the permission
// set, redirect URI, and client_id (§4.1.4). Different real apps had
// different human-oriented redirect chains, which is why the paper could
// only crawl permissions for a subset of apps; the simulator keeps one
// canonical chain and lets the crawler model per-app failures.
func (s *Server) serveInstall(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		http.Error(w, "missing id", http.StatusBadRequest)
		return
	}
	info, err := s.Platform.InstallInfo(id)
	if err != nil {
		if errors.Is(err, fbplatform.ErrAppDeleted) || errors.Is(err, fbplatform.ErrAppNotFound) {
			http.NotFound(w, r)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeInstallRedirect(w, r, info)
}

// writeInstallRedirect answers the installation URL of a live app: a 302
// to Facebook's permission dialog, where the 2012 installation URL led,
// whose query carries the negotiated parameters, which Client.Install
// reads back.
func writeInstallRedirect(w http.ResponseWriter, r *http.Request, info fbplatform.InstallInfo) {
	q := url.Values{}
	q.Set("app_id", info.AppID)
	q.Set("client_id", info.ClientID)
	q.Set("perms", strings.Join(info.Permissions, ","))
	q.Set("redirect_uri", info.RedirectURI)
	http.Redirect(w, r, "https://www.facebook.com/dialog/oauth?"+q.Encode(), http.StatusFound)
}
