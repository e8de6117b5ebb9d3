package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"frappe/internal/httpx"
	"frappe/internal/telemetry"
)

// Defaults for Config's zero fields.
const (
	// DefaultProbeInterval is the /healthz poll cadence.
	DefaultProbeInterval = 500 * time.Millisecond
	// DefaultProbeTimeout bounds one health probe end to end.
	DefaultProbeTimeout = 2 * time.Second
	// DefaultRouteTimeout bounds one proxied request across all fail-over
	// attempts.
	DefaultRouteTimeout = 15 * time.Second
	// DefaultUnhealthyAfter is how many consecutive probe failures mark a
	// member unhealthy.
	DefaultUnhealthyAfter = 1
	// DefaultHealthyAfter is how many consecutive probe successes bring an
	// unhealthy member back.
	DefaultHealthyAfter = 1
)

// Member identifies one watchdogd replica.
type Member struct {
	// ID is the member's stable identity on the ring. It must not change
	// across restarts, or the keyspace reshuffles.
	ID string
	// URL is the replica's serving base URL (scheme://host:port).
	URL string
}

// Config parameterises a Cluster.
type Config struct {
	// Members is the static fleet. At least one is required.
	Members []Member
	// VirtualNodes per member on the ring (0 = DefaultVirtualNodes).
	VirtualNodes int
	// ProbeInterval and ProbeTimeout shape the health poller.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// UnhealthyAfter / HealthyAfter are the consecutive-probe thresholds
	// for marking a member down / back up (0 = defaults; both 1).
	UnhealthyAfter int
	HealthyAfter   int
	// RouteTimeout bounds one proxied request, fail-over attempts
	// included (0 = DefaultRouteTimeout).
	RouteTimeout time.Duration
	// MemberTimeout bounds one attempt against one member (0 = httpx
	// default).
	MemberTimeout time.Duration
	// BreakerThreshold / BreakerCooldown tune the per-member circuit
	// breaker (0 = httpx defaults, negative threshold disables).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Telemetry is the registry the cluster records into; nil means the
	// process default.
	Telemetry *telemetry.Registry
	// Transport is a test seam for the member client.
	Transport http.RoundTripper
}

// memberState is one member's live routing state.
type memberState struct {
	member  Member
	healthy atomic.Bool
	// consecutive probe outcomes, guarded by the prober goroutine (probes
	// for one member never run concurrently).
	consecUp   int
	consecDown int
	// lastErr is the most recent probe or routing failure ("" when
	// healthy), for /cluster.
	lastErr atomic.Value // string
	// routed counts requests this member served through the proxy.
	routed atomic.Uint64
}

// Cluster is the front-door state: ring, member table, health prober and
// the proxy handler (proxy.go). Construct with New, then Start the
// prober; Handler serves the front-door API.
type Cluster struct {
	cfg    Config
	ring   *Ring
	client *httpx.Client
	reg    *telemetry.Registry

	mu     sync.RWMutex
	states map[string]*memberState

	draining atomic.Bool

	healthyGauge  *telemetry.Gauge
	memberHealthy *telemetry.GaugeVec
	ringShare     *telemetry.GaugeVec
	routedTotal   *telemetry.CounterVec
	failoverTotal *telemetry.CounterVec
	probeTotal    *telemetry.CounterVec
}

// New validates cfg and builds the cluster. Members are considered
// healthy until the first probe says otherwise, so a front door that
// starts before its first poll completes still routes.
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("cluster: no members configured")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = DefaultProbeTimeout
	}
	if cfg.RouteTimeout <= 0 {
		cfg.RouteTimeout = DefaultRouteTimeout
	}
	if cfg.UnhealthyAfter <= 0 {
		cfg.UnhealthyAfter = DefaultUnhealthyAfter
	}
	if cfg.HealthyAfter <= 0 {
		cfg.HealthyAfter = DefaultHealthyAfter
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.Default()
	}
	c := &Cluster{
		cfg:    cfg,
		ring:   NewRing(cfg.VirtualNodes),
		reg:    reg,
		states: make(map[string]*memberState, len(cfg.Members)),
		// One httpx client covers the whole fleet: members live on
		// distinct host:ports, so the per-host circuit breaker is a
		// per-member breaker for free. MaxAttempts is 1 because retry is
		// the ring walk's job — re-hammering a dead member would only
		// delay the fail-over.
		client: httpx.New(httpx.Config{
			Service:          "cluster",
			Timeout:          cfg.MemberTimeout,
			MaxAttempts:      -1,
			BreakerThreshold: cfg.BreakerThreshold,
			BreakerCooldown:  cfg.BreakerCooldown,
			Telemetry:        reg,
			Transport:        cfg.Transport,
			// The front door's singleflight would collapse concurrent
			// identical /check fetches; the replicas already singleflight
			// per app, and collapsing here would serialise distinct
			// clients on one member connection. Keep it off.
			DisableSingleflight: true,
		}),
		healthyGauge: reg.Gauge("frappe_cluster_members_healthy",
			"Members currently considered healthy by the front door.").With(),
		memberHealthy: reg.Gauge("frappe_cluster_member_healthy",
			"Per-member health as seen by the front door (1 healthy, 0 down).", "member"),
		ringShare: reg.Gauge("frappe_cluster_ring_share",
			"Fraction of the consistent-hash keyspace owned by each member.", "member"),
		routedTotal: reg.Counter("frappe_cluster_requests_total",
			"Requests proxied to each member by the front door.", "member"),
		failoverTotal: reg.Counter("frappe_cluster_failover_total",
			"Fail-overs to the ring's next member, by reason.", "reason"),
		probeTotal: reg.Counter("frappe_cluster_probe_total",
			"Health probes, by member and result.", "member", "result"),
	}
	seen := make(map[string]struct{}, len(cfg.Members))
	for _, m := range cfg.Members {
		if m.ID == "" || m.URL == "" {
			return nil, fmt.Errorf("cluster: member needs both id and url (got id=%q url=%q)", m.ID, m.URL)
		}
		if _, dup := seen[m.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate member id %q", m.ID)
		}
		seen[m.ID] = struct{}{}
		st := &memberState{member: m}
		st.healthy.Store(true)
		st.lastErr.Store("")
		c.states[m.ID] = st
		c.ring.Add(m.ID)
		c.memberHealthy.With(m.ID).Set(1)
	}
	// Materialize the fail-over reason series at zero so the family is
	// always present in the exposition — a dashboard alerting on its rate
	// must see 0, not an absent series, on a healthy fleet.
	for _, reason := range []string{"error", "5xx", "breaker_open"} {
		c.failoverTotal.With(reason)
	}
	c.healthyGauge.Set(float64(len(cfg.Members)))
	for id, share := range c.ring.Shares() {
		c.ringShare.With(id).Set(share)
	}
	return c, nil
}

// Start launches the health prober; it stops when ctx is cancelled.
func (c *Cluster) Start(ctx context.Context) {
	go c.probeLoop(ctx)
}

// SetDraining flips the front door's own /healthz (503 while draining),
// so an upstream of the LB can de-route it before shutdown — the same
// protocol the LB expects of its members.
func (c *Cluster) SetDraining(v bool) { c.draining.Store(v) }

// state returns the member's routing state (nil for unknown IDs).
func (c *Cluster) state(id string) *memberState {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.states[id]
}

// HealthyMembers returns the IDs currently routable, sorted.
func (c *Cluster) HealthyMembers() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []string
	for id, st := range c.states {
		if st.healthy.Load() {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// markUnhealthy transitions a member down (idempotent) and records why.
func (c *Cluster) markUnhealthy(st *memberState, reason string) {
	st.lastErr.Store(reason)
	if st.healthy.CompareAndSwap(true, false) {
		c.memberHealthy.With(st.member.ID).Set(0)
		c.healthyGauge.Add(-1)
	}
}

// markHealthy transitions a member up (idempotent).
func (c *Cluster) markHealthy(st *memberState) {
	st.lastErr.Store("")
	if st.healthy.CompareAndSwap(false, true) {
		c.memberHealthy.With(st.member.ID).Set(1)
		c.healthyGauge.Add(1)
	}
}

// probeLoop polls every member's /healthz at the configured cadence.
func (c *Cluster) probeLoop(ctx context.Context) {
	ticker := time.NewTicker(c.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		c.probeAll(ctx)
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
	}
}

// probeAll probes the fleet once, members in parallel.
func (c *Cluster) probeAll(ctx context.Context) {
	c.mu.RLock()
	states := make([]*memberState, 0, len(c.states))
	for _, st := range c.states {
		states = append(states, st)
	}
	c.mu.RUnlock()
	var wg sync.WaitGroup
	for _, st := range states {
		wg.Add(1)
		go func(st *memberState) {
			defer wg.Done()
			c.probe(ctx, st)
		}(st)
	}
	wg.Wait()
}

// probe checks one member's /healthz. The probe uses a plain http.Client
// rather than the routing client: a probe must reach the member even
// while its routing breaker is open — the probe is how the breaker's
// verdict gets revisited from the membership side.
func (c *Cluster) probe(ctx context.Context, st *memberState) {
	pctx, cancel := context.WithTimeout(ctx, c.cfg.ProbeTimeout)
	defer cancel()
	ok, detail := probeHealthz(pctx, st.member.URL, c.cfg.Transport)
	if ok {
		c.probeTotal.With(st.member.ID, "ok").Inc()
		st.consecDown = 0
		st.consecUp++
		if st.consecUp >= c.cfg.HealthyAfter {
			c.markHealthy(st)
		}
		return
	}
	c.probeTotal.With(st.member.ID, "fail").Inc()
	st.consecUp = 0
	st.consecDown++
	if st.consecDown >= c.cfg.UnhealthyAfter {
		c.markUnhealthy(st, detail)
	}
}

// probeHealthz performs one GET /healthz; any non-200 (a draining
// member's 503 included) or transport failure counts as down.
func probeHealthz(ctx context.Context, baseURL string, transport http.RoundTripper) (bool, string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/healthz", nil)
	if err != nil {
		return false, err.Error()
	}
	client := &http.Client{Transport: transport}
	resp, err := client.Do(req)
	if err != nil {
		return false, err.Error()
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Sprintf("healthz status %d", resp.StatusCode)
	}
	return true, ""
}
