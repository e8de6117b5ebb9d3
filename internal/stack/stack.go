// Package stack runs a synthetic world's services — the Graph API, bit.ly,
// WOT, Social Bakers, and the indirection redirector — as real HTTP servers
// on loopback, so that the measurement pipeline (crawler, watchdog CLI,
// examples) exercises the same networking code paths the paper's tooling
// did against the live services.
package stack

import (
	"net/http"

	"frappe/internal/bitly"
	"frappe/internal/fbplatform"
	"frappe/internal/graphapi"
	"frappe/internal/socialbakers"
	"frappe/internal/synth"
	"frappe/internal/telemetry"
	"frappe/internal/wot"
)

// Stack is a set of running loopback servers for one world.
type Stack struct {
	GraphURL        string
	BitlyURL        string
	WOTURL          string
	SocialBakersURL string
	RedirectorURL   string

	// Telemetry is the registry every service's HTTP middleware records
	// into (request counts, status classes, latency histograms).
	Telemetry *telemetry.Registry

	services *ReplicaSet
}

// Options configures a stack beyond its world: the telemetry registry
// the services record into, and optional deterministic fault injection.
type Options struct {
	// Telemetry is the registry every service's middleware records into;
	// nil means the process default.
	Telemetry *telemetry.Registry
	// Faults, when non-nil, wraps every service with the fault-injection
	// middleware (see faults.go).
	Faults *FaultSpec
}

// Start launches one HTTP server per service, instrumented against the
// process default telemetry registry. Callers must Close the stack.
func Start(w *synth.World) (*Stack, error) {
	return StartOpts(w, Options{})
}

// StartOpts is Start with full Options. The services run as one
// ReplicaSet, one replica per service name.
func StartOpts(w *synth.World, opts Options) (*Stack, error) {
	reg := opts.Telemetry
	if reg == nil {
		reg = telemetry.Default()
	}
	graph := graphapi.NewServer(w.Platform)
	// Posts created over HTTP land on monitored walls.
	graph.PostSink = func(p fbplatform.Post) { w.Monitor.Observe(p) }
	names := []string{"graph", "bitly", "wot", "socialbakers", "redirector"}
	handlers := []http.Handler{graph, w.Bitly, w.WOT, w.SocialBakers, w.Redirector}
	services, err := StartReplicas(names, func(i int, name string) http.Handler {
		// Faults inject inside the telemetry middleware, so injected 502s
		// and hangs are visible in the per-service request metrics.
		h := handlers[i]
		if opts.Faults != nil {
			h = opts.Faults.wrap(reg, name, h)
		}
		return telemetry.Middleware(reg, name, h)
	})
	if err != nil {
		return nil, err
	}
	s := &Stack{
		GraphURL:        services.URL(0),
		BitlyURL:        services.URL(1),
		WOTURL:          services.URL(2),
		SocialBakersURL: services.URL(3),
		RedirectorURL:   services.URL(4),
		Telemetry:       reg,
		services:        services,
	}
	// Short links must resolve against the running bit.ly server.
	w.Bitly.SetBaseURL(s.BitlyURL)
	return s, nil
}

// Clients returns pre-wired clients for the running services.
func (s *Stack) Clients() (*graphapi.Client, *bitly.Client, *wot.Client, *socialbakers.Client) {
	return &graphapi.Client{BaseURL: s.GraphURL},
		&bitly.Client{BaseURL: s.BitlyURL},
		&wot.Client{BaseURL: s.WOTURL},
		&socialbakers.Client{BaseURL: s.SocialBakersURL}
}

// Close shuts every server down and waits for them to stop serving.
func (s *Stack) Close() { s.services.Close() }
