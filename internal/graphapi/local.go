package graphapi

import (
	"context"

	"frappe/internal/fbplatform"
)

// Local answers Client's crawl reads in process, from the same documents
// Server encodes, with the same deleted-app signal: the dataset build and
// the §5.3 sweep crawl a whole world through it without sockets.
type Local struct {
	Platform *fbplatform.Platform
}

// Node returns the app's summary and its profile feed's first feedLimit
// posts, or the whole feed when feedLimit <= 0, from one platform read;
// or ErrDeleted.
func (l Local) Node(_ context.Context, id string, feedLimit int) (Node, error) {
	if feedLimit <= 0 {
		feedLimit = -1
	}
	prof, err := l.Platform.Profile(id, feedLimit)
	if err != nil {
		return Node{}, ErrDeleted
	}
	s := summaryOf(prof)
	return Node{Summary: &s, Feed: feedOf(prof.Feed).Data}, nil
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
