// Package wot simulates the Web of Trust (WOT) domain-reputation service
// queried in §4.1.3 of the paper: every redirect-URI domain gets a trust
// score in [0, 100], and domains WOT has never seen return no score at all
// (the paper maps those to −1). FRAppE Lite's seventh feature is this
// score.
package wot

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"

	"frappe/internal/httpx"
)

// UnknownScore is the sentinel the paper assigns to domains without a WOT
// reputation ("we assign a score of −1 to the domains for which the WOT
// score is not available").
const UnknownScore = -1

// ErrUnknownDomain is returned when WOT has no reputation for a domain.
var ErrUnknownDomain = errors.New("wot: unknown domain")

// Service is an in-memory reputation database, safe for concurrent use.
type Service struct {
	mu     sync.RWMutex
	scores map[string]int
}

// NewService returns an empty reputation database.
func NewService() *Service {
	return &Service{scores: make(map[string]int)}
}

// SetScore records the trust score (0–100) for a domain.
func (s *Service) SetScore(domain string, score int) error {
	if score < 0 || score > 100 {
		return fmt.Errorf("wot: score %d out of range [0,100]", score)
	}
	d := canonical(domain)
	if d == "" {
		return errors.New("wot: empty domain")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.scores[d] = score
	return nil
}

// Score returns the trust score for a domain, or ErrUnknownDomain.
func (s *Service) Score(domain string) (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	score, ok := s.scores[canonical(domain)]
	if !ok {
		return 0, ErrUnknownDomain
	}
	return score, nil
}

// ScoreOrUnknown is Client.ScoreOrUnknown answered in process: the score
// for the domain of rawURL, or UnknownScore.
func (s *Service) ScoreOrUnknown(_ context.Context, rawURL string) int {
	score, err := s.Score(DomainOf(rawURL))
	if err != nil {
		return UnknownScore
	}
	return score
}

// NumDomains reports how many domains have a recorded score.
func (s *Service) NumDomains() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.scores)
}

// canonical lowercases and strips a leading "www.".
func canonical(domain string) string {
	d := strings.ToLower(strings.TrimSpace(domain))
	d = strings.TrimPrefix(d, "www.")
	return d
}

// DomainOf extracts the canonical registrable host from a raw URL. Bare
// hosts (no scheme) are accepted. Returns "" if nothing parseable remains.
func DomainOf(raw string) string {
	if raw == "" {
		return ""
	}
	u, err := url.Parse(raw)
	if err != nil || u.Host == "" {
		// Perhaps a bare host like "example.com/path".
		if i := strings.IndexAny(raw, "/?#"); i >= 0 {
			raw = raw[:i]
		}
		return canonical(raw)
	}
	return canonical(u.Hostname())
}

// ServeHTTP implements the lookup API:
//
//	GET /lookup?domain=D -> {"domain": D, "score": N}   (200)
//	                     -> {"error": "unknown domain"} (404)
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/lookup" {
		http.NotFound(w, r)
		return
	}
	domain := r.URL.Query().Get("domain")
	if domain == "" {
		http.Error(w, `{"error":"missing domain"}`, http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	score, err := s.Score(domain)
	if err != nil {
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(map[string]string{"error": "unknown domain"})
		return
	}
	json.NewEncoder(w).Encode(map[string]interface{}{"domain": canonical(domain), "score": score})
}

// Client queries a WOT-compatible reputation API.
type Client struct {
	BaseURL string
	// HTTP is the resilient transport (timeouts, retries, breaker); nil
	// means the shared httpx.Default().
	HTTP *httpx.Client
}

func (c *Client) transport() *httpx.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return httpx.Default()
}

// Score returns the trust score for domain, or ErrUnknownDomain when WOT
// has no data. The context carries cancellation and the caller's trace.
func (c *Client) Score(ctx context.Context, domain string) (int, error) {
	u := strings.TrimRight(c.BaseURL, "/") + "/lookup?" + url.Values{"domain": {domain}}.Encode()
	resp, err := c.transport().Get(ctx, u)
	if err != nil {
		return 0, fmt.Errorf("wot: %w", err)
	}
	if resp.StatusCode == http.StatusNotFound {
		return 0, ErrUnknownDomain
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("wot: unexpected status %s", resp.Status)
	}
	var body struct {
		Score int `json:"score"`
	}
	if err := json.Unmarshal(resp.Body, &body); err != nil {
		return 0, fmt.Errorf("wot: decoding response: %w", err)
	}
	return body.Score, nil
}

// ScoreOrUnknown returns the score for the domain of rawURL, mapping
// unknown domains (and unparseable URLs) to UnknownScore, exactly as the
// paper's feature extraction does.
func (c *Client) ScoreOrUnknown(ctx context.Context, rawURL string) int {
	d := DomainOf(rawURL)
	if d == "" {
		return UnknownScore
	}
	score, err := c.Score(ctx, d)
	if err != nil {
		return UnknownScore
	}
	return score
}
