package graphapi

import (
	"context"

	"frappe/internal/fbplatform"
)

// Local answers Client's three crawl reads in process, from the same
// documents Server encodes, with the same deleted-app signal: the dataset
// build and the §5.3 sweep crawl a whole world through it without sockets.
type Local struct {
	Platform *fbplatform.Platform
}

// Summary returns the app's summary, or ErrDeleted.
func (l Local) Summary(_ context.Context, id string) (*Summary, error) {
	app, err := l.Platform.Lookup(id)
	if err != nil {
		return nil, ErrDeleted
	}
	s := summaryOf(app)
	return &s, nil
}

// Feed returns the first limit posts on the app's profile page, or all
// of them when limit <= 0, or ErrDeleted.
func (l Local) Feed(_ context.Context, id string, limit int) ([]FeedPost, error) {
	app, err := l.Platform.Lookup(id)
	if err != nil {
		return nil, ErrDeleted
	}
	return feedOf(app, limit).Data, nil
}

// Install returns the parameters the install redirect carries, or
// ErrDeleted: the platform refuses the install flow only for apps that
// are gone from the graph.
func (l Local) Install(_ context.Context, id string) (InstallInfo, error) {
	info, err := l.Platform.InstallInfo(id)
	if err != nil {
		return InstallInfo{}, ErrDeleted
	}
	return InstallInfo(info), nil
}
