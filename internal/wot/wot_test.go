package wot

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestSetAndScore(t *testing.T) {
	s := NewService()
	if err := s.SetScore("facebook.com", 94); err != nil {
		t.Fatal(err)
	}
	got, err := s.Score("facebook.com")
	if err != nil || got != 94 {
		t.Errorf("Score = %d, %v", got, err)
	}
	// Canonicalisation: www + case.
	if got, err := s.Score("WWW.Facebook.COM"); err != nil || got != 94 {
		t.Errorf("canonical Score = %d, %v", got, err)
	}
	if _, err := s.Score("unknown.example"); !errors.Is(err, ErrUnknownDomain) {
		t.Errorf("unknown err = %v", err)
	}
	if s.NumDomains() != 1 {
		t.Errorf("NumDomains = %d", s.NumDomains())
	}
}

func TestSetScoreValidation(t *testing.T) {
	s := NewService()
	if err := s.SetScore("x.com", -1); err == nil {
		t.Error("score -1: want error")
	}
	if err := s.SetScore("x.com", 101); err == nil {
		t.Error("score 101: want error")
	}
	if err := s.SetScore("", 50); err == nil {
		t.Error("empty domain: want error")
	}
	if err := s.SetScore("x.com", 0); err != nil {
		t.Errorf("score 0 should be valid: %v", err)
	}
	if err := s.SetScore("x.com", 100); err != nil {
		t.Errorf("score 100 should be valid: %v", err)
	}
}

func TestDomainOf(t *testing.T) {
	cases := []struct{ in, want string }{
		{"http://www.Example.com/path?q=1", "example.com"},
		{"https://apps.facebook.com/app", "apps.facebook.com"},
		{"thenamemeans2.com/land", "thenamemeans2.com"},
		{"", ""},
		{"http://host:8080/x", "host"},
	}
	for _, c := range cases {
		if got := DomainOf(c.in); got != c.want {
			t.Errorf("DomainOf(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestHTTPLookup(t *testing.T) {
	svc := NewService()
	if err := svc.SetScore("apps.facebook.com", 92); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc)
	defer srv.Close()

	c := &Client{BaseURL: srv.URL}
	score, err := c.Score(context.Background(), "apps.facebook.com")
	if err != nil || score != 92 {
		t.Errorf("Score = %d, %v", score, err)
	}
	if _, err := c.Score(context.Background(), "fastfreeupdates.com"); !errors.Is(err, ErrUnknownDomain) {
		t.Errorf("unknown domain err = %v", err)
	}

	// Missing domain -> 400.
	resp, err := http.Get(srv.URL + "/lookup")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing domain status = %d", resp.StatusCode)
	}
	// Unknown path -> 404.
	resp, err = http.Get(srv.URL + "/other")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status = %d", resp.StatusCode)
	}
}

func TestScoreOrUnknown(t *testing.T) {
	svc := NewService()
	if err := svc.SetScore("good.example", 80); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc)
	defer srv.Close()
	c := &Client{BaseURL: srv.URL}

	// The Service answers in process what the Client reads over HTTP.
	for _, tc := range []struct {
		url  string
		want int
	}{
		{"http://good.example/install", 80},
		{"http://evil.example/x", UnknownScore},
		{"", UnknownScore},
		{"http:///no-host", UnknownScore},
	} {
		if got := c.ScoreOrUnknown(context.Background(), tc.url); got != tc.want {
			t.Errorf("Client.ScoreOrUnknown(%q) = %d, want %d", tc.url, got, tc.want)
		}
		if got := svc.ScoreOrUnknown(context.Background(), tc.url); got != tc.want {
			t.Errorf("Service.ScoreOrUnknown(%q) = %d, want %d", tc.url, got, tc.want)
		}
	}
}
