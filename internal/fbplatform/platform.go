// Package fbplatform simulates the 2012-era Facebook third-party application
// platform that the paper measures: applications with numeric IDs, free-text
// summaries, install-time permission grants chosen from a 64-entry
// catalogue, installation URLs whose client_id may differ from the visited
// app's ID (§4.1.4), app profile feeds (§4.1.5), monthly-active-user counts,
// app deletion ("removed from the Facebook graph"), and the lax
// prompt_feed API that lets anyone attribute a post to any app ID (§6.2,
// "app piggybacking").
//
// The platform is the substrate underneath the Graph-API HTTP service
// (internal/graphapi) and the synthetic world generator (internal/synth).
package fbplatform

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Common errors returned by platform lookups.
var (
	ErrAppNotFound = errors.New("fbplatform: app not found")
	ErrAppDeleted  = errors.New("fbplatform: app deleted from graph")
	ErrBadRequest  = errors.New("fbplatform: bad request")
)

// App is a third-party application registered on the platform. The three
// Summary fields (Description, Company, Category) are what the Open Graph
// API exposes; malicious apps typically leave them empty (§4.1.1).
type App struct {
	ID          string
	Name        string
	Description string
	Company     string
	Category    string

	// Permissions are the install-time permission names requested from the
	// user, drawn from PermissionCatalog.
	Permissions []string

	// RedirectURI is where the user lands after installing (§4.1.3).
	RedirectURI string

	// ClientID is the app ID encoded in the installation redirect. For
	// honest apps ClientID == ID; 78% of malicious apps point it at a
	// different app of the same campaign (§4.1.4).
	ClientID string

	// MAU is the monthly-active-user series, one sample per observed month.
	MAU []int

	// ProfileFeed is the app profile page's post list (§4.1.5).
	ProfileFeed []ProfilePost

	// Deleted marks the app as removed from the Facebook graph; Graph API
	// lookups then return false, which the paper uses as a validation
	// signal (§5.3).
	Deleted bool

	// Truth carries generator-side ground truth. It is NOT exposed through
	// the Graph API; classifiers never see it.
	Truth Truth
}

// Truth is hidden ground-truth metadata attached by the generator and used
// only for evaluation.
type Truth struct {
	Malicious bool
	// HackerID identifies the AppNet operator controlling the app
	// (-1 for benign apps).
	HackerID int
	// CampaignName is the shared base name of the hacker's campaign.
	CampaignName string
}

// ProfilePost is a post on an app's profile page.
type ProfilePost struct {
	Message string
	Link    string
	Month   int
}

// Post is a wall/news-feed post observed by the monitoring service. At full
// scale the paper processes 91M of these, so Post stays small and posts are
// streamed, never accumulated.
type Post struct {
	// AppID is the application credited in the post's metadata. Empty for
	// manual posts and social-plugin posts (37% of the paper's feed).
	AppID string
	// SourceAppID is the app that truly produced the post. It differs from
	// AppID only for piggybacked posts (§6.2) and is hidden ground truth.
	SourceAppID string
	UserID      int
	Message     string
	Link        string // URL carried by the post, "" if none
	Month       int
	// Likes counts 'Like's and comments on the post; the paper observes
	// malicious posts receive fewer of them, and MyPageKeeper's URL
	// classifier uses that signal.
	Likes int
	// MaliciousLink is hidden ground truth: the link leads to a scam.
	MaliciousLink bool
}

// clone returns a deep copy of the app: same scalar fields, freshly
// allocated slices. The read API hands these out so that Delete (which
// mutates the registry's copy under the write lock) can never race a
// caller still holding a previously returned *App.
func (a *App) clone() *App {
	cp := *a
	cp.Permissions = append([]string(nil), a.Permissions...)
	cp.MAU = append([]int(nil), a.MAU...)
	cp.ProfileFeed = append([]ProfilePost(nil), a.ProfileFeed...)
	return &cp
}

// MedianMAU returns the median of the app's MAU series (0 if empty).
func (a *App) MedianMAU() int {
	if len(a.MAU) == 0 {
		return 0
	}
	s := make([]int, len(a.MAU))
	copy(s, a.MAU)
	sort.Ints(s)
	return s[len(s)/2]
}

// MaxMAU returns the maximum of the app's MAU series (0 if empty).
func (a *App) MaxMAU() int {
	m := 0
	for _, v := range a.MAU {
		if v > m {
			m = v
		}
	}
	return m
}

// InstallInfo is what a crawler learns by following an app's installation
// URL (https://www.facebook.com/apps/application.php?id=AppID).
type InstallInfo struct {
	AppID       string
	ClientID    string
	Permissions []string
	RedirectURI string
}

// Platform is the app registry plus the API surface the paper's crawlers
// hit. It is safe for concurrent use.
type Platform struct {
	mu    sync.RWMutex
	apps  map[string]*App
	order []string // registration order, for deterministic iteration
	users int

	// tokenStore backs the OAuth flow of Fig. 2 (see tokens.go).
	tokenStore *tokenStore

	// policy holds the §7 enforcement rules (see policy.go).
	policy Policy
}

// New returns an empty platform with the given user population size.
func New(users int) *Platform {
	return &Platform{apps: make(map[string]*App), users: users}
}

// Users returns the size of the user population.
func (p *Platform) Users() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.users
}

// Register adds app to the platform. The app ID must be unique and
// non-empty, and all requested permissions must exist in the catalogue.
func (p *Platform) Register(app *App) error {
	if app == nil || app.ID == "" {
		return fmt.Errorf("%w: missing app ID", ErrBadRequest)
	}
	for _, perm := range app.Permissions {
		if !ValidPermission(perm) {
			return fmt.Errorf("%w: unknown permission %q", ErrBadRequest, perm)
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.apps[app.ID]; dup {
		return fmt.Errorf("%w: duplicate app ID %s", ErrBadRequest, app.ID)
	}
	if err := p.checkRegisterLocked(app); err != nil {
		return err
	}
	if app.ClientID == "" {
		app.ClientID = app.ID
	}
	p.apps[app.ID] = app
	p.order = append(p.order, app.ID)
	return nil
}

// App returns a snapshot of the app with the given ID, including deleted
// apps (the platform still knows about them internally; only the public
// API hides them). Callers that model the public API should use Lookup.
// The returned *App is the caller's own deep copy: mutating it does not
// touch the registry, and a concurrent Delete cannot race its fields.
func (p *Platform) App(id string) (*App, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	app, ok := p.apps[id]
	if !ok {
		return nil, ErrAppNotFound
	}
	return app.clone(), nil
}

// Lookup models the public Graph API visibility rules: deleted apps return
// ErrAppDeleted (the real API returns `false`), unknown IDs return
// ErrAppNotFound. Like App, it returns a snapshot copy; the Deleted check
// happens under the same lock that Delete writes under.
func (p *Platform) Lookup(id string) (*App, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	app, ok := p.apps[id]
	if !ok {
		return nil, ErrAppNotFound
	}
	if app.Deleted {
		return nil, ErrAppDeleted
	}
	return app.clone(), nil
}

// Profile is an app's public Graph-API node: its summary fields, its
// latest monthly-active-user sample and the first posts of its profile
// feed.
type Profile struct {
	ID          string
	Name        string
	Description string
	Company     string
	Category    string
	// MAU is the latest sample of the app's MAU series, 0 when it is empty.
	MAU  int
	Feed []ProfilePost
}

// Profile reads an app's public node under Lookup's visibility rules. It
// copies only what the node serves: the summary fields and, as with
// strings.SplitN's n, at most posts posts when posts > 0, none when
// posts == 0 and the whole feed when posts < 0. So its cost does not grow
// with the feed it does not serve.
func (p *Platform) Profile(id string, posts int) (Profile, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	app, ok := p.apps[id]
	if !ok {
		return Profile{}, ErrAppNotFound
	}
	if app.Deleted {
		return Profile{}, ErrAppDeleted
	}
	prof := Profile{
		ID:          app.ID,
		Name:        app.Name,
		Description: app.Description,
		Company:     app.Company,
		Category:    app.Category,
	}
	if n := len(app.MAU); n > 0 {
		prof.MAU = app.MAU[n-1]
	}
	feed := app.ProfileFeed
	if posts >= 0 && posts < len(feed) {
		feed = feed[:posts]
	}
	prof.Feed = append([]ProfilePost(nil), feed...)
	return prof, nil
}

// InstallInfo models following the installation URL: Facebook queries the
// app server and redirects the user to a URL carrying the permission set,
// the redirect URI, and — crucially — the client_id chosen by the app
// server. Deleted apps fail. All fields are read under the registry lock.
func (p *Platform) InstallInfo(id string) (InstallInfo, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	app, ok := p.apps[id]
	if !ok {
		return InstallInfo{}, ErrAppNotFound
	}
	if app.Deleted {
		return InstallInfo{}, ErrAppDeleted
	}
	return InstallInfo{
		AppID:       app.ID,
		ClientID:    app.ClientID,
		Permissions: append([]string(nil), app.Permissions...),
		RedirectURI: app.RedirectURI,
	}, nil
}

// Delete removes the app from the public graph, as Facebook does when it
// blacklists a malicious app.
func (p *Platform) Delete(id string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	app, ok := p.apps[id]
	if !ok {
		return ErrAppNotFound
	}
	app.Deleted = true
	return nil
}

// NumApps returns the number of registered apps (deleted included).
func (p *Platform) NumApps() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.apps)
}

// AppIDs returns all app IDs in registration order (deleted included).
func (p *Platform) AppIDs() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return append([]string(nil), p.order...)
}

// Each calls fn for every app in registration order until fn returns
// false. fn receives a snapshot copy, like App.
func (p *Platform) Each(fn func(*App) bool) {
	p.mu.RLock()
	ids := append([]string(nil), p.order...)
	p.mu.RUnlock()
	for _, id := range ids {
		p.mu.RLock()
		app, ok := p.apps[id]
		var snap *App
		if ok {
			snap = app.clone()
		}
		p.mu.RUnlock()
		if !ok {
			continue
		}
		if !fn(snap) {
			return
		}
	}
}

// PromptFeedPost models the prompt_feed API weakness of §6.2: any caller
// can create a post attributed to apiKey, with no authentication that the
// post really originates from that application. The returned Post carries
// the true source in SourceAppID for ground-truth accounting. The
// attributed app must exist (Facebook resolves the api_key), but may even
// be deleted — the weakness is the missing authentication, not missing
// existence checks.
func (p *Platform) PromptFeedPost(apiKey, trueSourceID string, userID int, message, link string, month int, maliciousLink bool) (Post, error) {
	p.mu.RLock()
	_, known := p.apps[apiKey]
	p.mu.RUnlock()
	if !known {
		return Post{}, ErrAppNotFound
	}
	if err := p.checkPromptFeed(apiKey, trueSourceID); err != nil {
		return Post{}, err
	}
	return Post{
		AppID:         apiKey,
		SourceAppID:   trueSourceID,
		UserID:        userID,
		Message:       message,
		Link:          link,
		Month:         month,
		MaliciousLink: maliciousLink,
	}, nil
}
