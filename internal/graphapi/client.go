package graphapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"

	"frappe/internal/httpx"
)

// ErrDeleted is returned when the Graph API answers `false`, i.e. the app
// has been removed from the Facebook graph (or never existed publicly).
var ErrDeleted = errors.New("graphapi: app deleted from graph")

// InstallInfo is the parameter set scraped from the installation redirect.
type InstallInfo struct {
	AppID       string
	ClientID    string
	Permissions []string
	RedirectURI string
}

// Client crawls a Graph-API-compatible endpoint. It is what FRAppE Lite
// uses to gather on-demand features for an app ID.
type Client struct {
	// BaseURL is the API root, e.g. "https://graph.facebook.com" or a test
	// server URL.
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

// get fetches path and returns the body, translating the Graph API's
// literal `false` into ErrDeleted. The context carries cancellation and
// the caller's trace (propagated as a traceparent header by httpx).
func (c *Client) get(ctx context.Context, path string) ([]byte, error) {
	resp, err := c.transport().Get(ctx, strings.TrimRight(c.BaseURL, "/")+path)
	if err != nil {
		return nil, fmt.Errorf("graphapi: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("graphapi: unexpected status %s", resp.Status)
	}
	if bytes.Equal(bytes.TrimSpace(resp.Body), []byte("false")) {
		return nil, ErrDeleted
	}
	return resp.Body, nil
}

// Summary fetches the app summary for id.
func (c *Client) Summary(ctx context.Context, id string) (*Summary, error) {
	body, err := c.get(ctx, "/"+url.PathEscape(id))
	if err != nil {
		return nil, err
	}
	var s Summary
	if err := json.Unmarshal(body, &s); err != nil {
		return nil, fmt.Errorf("graphapi: decoding summary: %w", err)
	}
	return &s, nil
}

// Feed fetches the posts on the app's profile page.
func (c *Client) Feed(ctx context.Context, id string) ([]FeedPost, error) {
	body, err := c.get(ctx, "/"+url.PathEscape(id)+"/feed")
	if err != nil {
		return nil, err
	}
	var doc feedDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("graphapi: decoding feed: %w", err)
	}
	return doc.Data, nil
}

// Install follows the app installation URL and scrapes the client_id,
// permission set, and redirect URI from the landing page, the §4.1.2/§4.1.4
// crawl. The installation URL answers with a 302 to the landing page;
// Install follows that one hop itself (httpx returns redirects as they
// come), and any other redirect is an error. Deleted apps yield ErrDeleted.
func (c *Client) Install(ctx context.Context, id string) (InstallInfo, error) {
	u := strings.TrimRight(c.BaseURL, "/") + "/apps/application.php?id=" + url.QueryEscape(id)
	resp, err := c.transport().Get(ctx, u)
	if err != nil {
		return InstallInfo{}, fmt.Errorf("graphapi: %w", err)
	}
	if loc := resp.Header.Get("Location"); resp.StatusCode == http.StatusFound && loc != "" {
		landing, err := url.Parse(u)
		if err == nil {
			landing, err = landing.Parse(loc)
		}
		if err != nil {
			return InstallInfo{}, fmt.Errorf("graphapi: install redirect: %w", err)
		}
		if resp, err = c.transport().Get(ctx, landing.String()); err != nil {
			return InstallInfo{}, fmt.Errorf("graphapi: %w", err)
		}
	}
	if resp.StatusCode == http.StatusNotFound {
		return InstallInfo{}, ErrDeleted
	}
	if resp.StatusCode != http.StatusOK {
		return InstallInfo{}, fmt.Errorf("graphapi: unexpected status %s", resp.Status)
	}
	var doc struct {
		AppID       string `json:"app_id"`
		ClientID    string `json:"client_id"`
		Perms       string `json:"perms"`
		RedirectURI string `json:"redirect_uri"`
	}
	if err := json.Unmarshal(resp.Body, &doc); err != nil {
		return InstallInfo{}, fmt.Errorf("graphapi: decoding install landing: %w", err)
	}
	info := InstallInfo{
		AppID:       doc.AppID,
		ClientID:    doc.ClientID,
		RedirectURI: doc.RedirectURI,
	}
	if doc.Perms != "" {
		info.Permissions = strings.Split(doc.Perms, ",")
	}
	return info, nil
}
