package graphapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
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

// Node is an app's Graph-API node as the crawler reads it: the summary
// and the first posts of the profile feed.
type Node struct {
	Summary *Summary
	Feed    []FeedPost
}

// Node fetches app id's summary and its profile feed's first feedLimit
// posts, or the whole feed when feedLimit <= 0, in one request: the
// Graph API's field expansion, ?fields=<the summary's fields>,feed.limit(N).
// A document without the feed is a decoding error.
func (c *Client) Node(ctx context.Context, id string, feedLimit int) (Node, error) {
	path := "/" + url.PathEscape(id) + "?fields=" + summaryFields + ",feed"
	if feedLimit > 0 {
		path += ".limit(" + strconv.Itoa(feedLimit) + ")"
	}
	body, err := c.get(ctx, path)
	if err != nil {
		return Node{}, err
	}
	var doc nodeDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return Node{}, fmt.Errorf("graphapi: decoding node: %w", err)
	}
	if doc.Feed == nil {
		return Node{}, errors.New("graphapi: decoding node: the document has no feed")
	}
	return Node{Summary: &doc.Summary, Feed: doc.Feed.Data}, nil
}

// Install reads the client_id, permission set, and redirect URI from the
// app installation URL's redirect, the §4.1.2/§4.1.4 crawl. The
// installation URL answers with a 302 whose Location, relative or
// absolute, carries them in its query; Install reads that Location and
// fetches nothing more. A 404 is ErrDeleted; any other answer, or a
// Location without app_id, is an error.
func (c *Client) Install(ctx context.Context, id string) (InstallInfo, error) {
	resp, err := c.transport().Get(ctx, strings.TrimRight(c.BaseURL, "/")+"/apps/application.php?id="+url.QueryEscape(id))
	if err != nil {
		return InstallInfo{}, fmt.Errorf("graphapi: %w", err)
	}
	switch resp.StatusCode {
	case http.StatusFound:
		return installFromLocation(resp.Header.Get("Location"))
	case http.StatusNotFound:
		return InstallInfo{}, ErrDeleted
	}
	return InstallInfo{}, fmt.Errorf("graphapi: unexpected status %s", resp.Status)
}

// installFromLocation reads the install parameters from the query of the
// installation URL's redirect target, the inverse of the Location that
// Server writes.
func installFromLocation(loc string) (InstallInfo, error) {
	u, err := url.Parse(loc)
	if err != nil {
		return InstallInfo{}, fmt.Errorf("graphapi: install redirect: %w", err)
	}
	q, err := url.ParseQuery(u.RawQuery)
	if err != nil {
		return InstallInfo{}, fmt.Errorf("graphapi: install redirect: %w", err)
	}
	if q.Get("app_id") == "" {
		return InstallInfo{}, fmt.Errorf("graphapi: install redirect %q carries no app_id", loc)
	}
	info := InstallInfo{
		AppID:       q.Get("app_id"),
		ClientID:    q.Get("client_id"),
		RedirectURI: q.Get("redirect_uri"),
	}
	if perms := q.Get("perms"); perms != "" {
		info.Permissions = strings.Split(perms, ",")
	}
	return info, nil
}
