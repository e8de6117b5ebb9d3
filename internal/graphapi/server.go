// Package graphapi exposes a simulated Facebook platform over HTTP with the
// three surfaces the paper's crawlers hit (§2.3, Table 4):
//
//	GET /{appID}                       — app summary (Open Graph API)
//	GET /{appID}?fields=…,feed.limit(N) — the summary with its profile
//	                                     feed's first N posts under "feed",
//	                                     the Graph API's field expansion;
//	                                     `feed` alone expands the whole feed
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
// The node's fields parameter may list the summary's own names
// (summaryFields) and one of feed and feed.limit(N); any other list is a
// 400. Deviation: the real Graph API serves only the fields listed, while
// the simulator serves the whole summary whichever of its names are
// listed. Client lists them all, so it reads the same document either
// way.
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

// nodeDoc is the node document: the summary's fields and, when the
// request's fields list the feed, the feed document under "feed".
// Without the feed it encodes exactly as Summary does.
type nodeDoc struct {
	Summary
	Feed *feedDoc `json:"feed,omitempty"`
}

// summaryFields lists the summary's own field names, as a node request's
// fields parameter names them (isSummaryField). Client asks for all of
// them.
const summaryFields = "id,name,description,company,category,link,monthly_active_users"

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
		s.serveNode(w, r, path)
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
func summaryOf(p fbplatform.Profile) Summary {
	return Summary{
		ID:                 p.ID,
		Name:               p.Name,
		Description:        p.Description,
		Company:            p.Company,
		Category:           p.Category,
		Link:               "https://www.facebook.com/apps/application.php?id=" + p.ID,
		MonthlyActiveUsers: p.MAU,
	}
}

// feedOf is the profile-feed document of a live app's posts. An empty
// feed is an empty list, not null.
func feedOf(posts []fbplatform.ProfilePost) feedDoc {
	doc := feedDoc{Data: make([]FeedPost, 0, len(posts))}
	for _, p := range posts {
		doc.Data = append(doc.Data, FeedPost{Message: p.Message, Link: p.Link, CreatedTime: p.Month})
	}
	return doc
}

// serveNode answers an app's node: its summary and, when the fields
// parameter lists the feed, the feed's first posts as well.
func (s *Server) serveNode(w http.ResponseWriter, r *http.Request, id string) {
	posts, err := nodePosts(r.URL.RawQuery)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	prof, err := s.Platform.Profile(id, posts)
	if err != nil {
		writeFalse(w)
		return
	}
	doc := nodeDoc{Summary: summaryOf(prof)}
	if posts != 0 {
		feed := feedOf(prof.Feed)
		doc.Feed = &feed
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(doc)
}

func (s *Server) serveFeed(w http.ResponseWriter, r *http.Request, id string) {
	posts, err := feedPosts(r.URL.RawQuery)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	prof, err := s.Platform.Profile(id, posts)
	if err != nil {
		writeFalse(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(feedOf(prof.Feed))
}

// The request parsers below answer in Platform.Profile's post count: -1
// for the whole feed, 0 for none, N for the first N posts.

// feedPosts reads the feed route's limit parameter: the whole feed when
// the query has none, a positive integer otherwise.
func feedPosts(rawQuery string) (int, error) {
	v, ok, err := queryParam(rawQuery, "limit")
	if err != nil || !ok {
		return -1, err
	}
	return positiveLimit(v)
}

// nodePosts reads the node route's fields parameter: no posts when the
// query has none, otherwise what parseFields reads from it.
func nodePosts(rawQuery string) (int, error) {
	v, ok, err := queryParam(rawQuery, "fields")
	if err != nil || !ok {
		return 0, err
	}
	return parseFields(v)
}

// parseFields reads a fields list: comma-separated summary names
// (summaryFields) and at most one feed entry, either feed (the whole
// feed) or feed.limit(N) (its first N posts, N read as the feed route's
// limit). An empty list, an empty or unknown name, or a second feed entry
// is an error.
func parseFields(list string) (posts int, err error) {
	if list == "" {
		return 0, errors.New("fields lists no field")
	}
	for more := true; more; {
		var name string
		name, list, more = strings.Cut(list, ",")
		if isSummaryField(name) {
			continue
		}
		arg, isLimit := strings.CutPrefix(name, "feed.limit(")
		if isLimit {
			arg, isLimit = strings.CutSuffix(arg, ")")
		}
		if name != "feed" && !isLimit {
			return 0, fmt.Errorf("unknown field %q", name)
		}
		if posts != 0 {
			return 0, errors.New("fields lists the feed twice")
		}
		posts = -1
		if isLimit {
			if posts, err = positiveLimit(arg); err != nil {
				return 0, err
			}
		}
	}
	return posts, nil
}

// isSummaryField reports whether name is one of summaryFields.
func isSummaryField(name string) bool {
	switch name {
	case "id", "name", "description", "company", "category", "link", "monthly_active_users":
		return true
	}
	return false
}

// positiveLimit reads a feed limit, of /feed?limit=N and of
// fields=feed.limit(N) alike: a positive integer.
func positiveLimit(v string) (int, error) {
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("limit must be a positive integer, not %q", v)
	}
	return n, nil
}

// queryParam reads the first value of the query parameter key. A query
// that does not decode is an error, so that an undecodable parameter is
// not read as an absent one.
func queryParam(rawQuery, key string) (v string, ok bool, err error) {
	q, err := url.ParseQuery(rawQuery)
	if err != nil {
		return "", false, fmt.Errorf("malformed query: %w", err)
	}
	vs, ok := q[key]
	if !ok {
		return "", false, nil
	}
	return vs[0], true, nil
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
