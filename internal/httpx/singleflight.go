package httpx

import (
	"context"
	"sync"
)

// flightGroup deduplicates concurrent identical GETs: the first caller
// (the leader) performs the request; callers that arrive while it is in
// flight wait and share the leader's response. A minimal stdlib-only
// take on x/sync/singleflight, with context-aware waiting.
type flightGroup struct {
	mu      sync.Mutex
	flights map[string]*flight
}

type flight struct {
	done    chan struct{}
	waiters int
	resp    *Response
	err     error
	// canceled records that fn failed with its leader's context done.
	canceled bool
}

func newFlightGroup() *flightGroup {
	return &flightGroup{flights: make(map[string]*flight)}
}

// do runs fn once per key among concurrent callers; fn runs under the
// caller's ctx. The boolean reports whether the result was shared from
// another caller's flight. Followers whose context dies stop waiting and
// return the context error, unshared. A flight that failed because its
// leader's context ended is not the upstream's answer: a follower whose
// context is still live runs fn itself instead of inheriting that failure.
func (g *flightGroup) do(ctx context.Context, key string, fn func() (*Response, error)) (*Response, error, bool) {
	g.mu.Lock()
	if f, ok := g.flights[key]; ok {
		f.waiters++
		g.mu.Unlock()
		select {
		case <-f.done:
			if f.canceled {
				if err := ctx.Err(); err != nil {
					return nil, err, false
				}
				return g.do(ctx, key, fn)
			}
			if f.err != nil {
				return nil, f.err, true
			}
			// Shallow copy so flag mutation never races across sharers;
			// Body is shared read-only.
			r := *f.resp
			r.Shared = true
			r.Attempts = 0
			return &r, nil, true
		case <-ctx.Done():
			return nil, ctx.Err(), false
		}
	}
	f := &flight{done: make(chan struct{})}
	g.flights[key] = f
	g.mu.Unlock()

	f.resp, f.err = fn()
	f.canceled = f.err != nil && ctx.Err() != nil

	g.mu.Lock()
	delete(g.flights, key)
	g.mu.Unlock()
	close(f.done)
	return f.resp, f.err, false
}

// waiting reports how many followers are currently blocked on key's
// flight; tests use it to sequence deterministic collapses.
func (g *flightGroup) waiting(key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.flights[key]; ok {
		return f.waiters
	}
	return 0
}
