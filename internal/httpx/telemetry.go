package httpx

import "frappe/internal/telemetry"

// Transport telemetry families (see DESIGN.md "Resilience"):
//
//	frappe_httpx_requests_total{service,outcome}      ok / exhausted / error / breaker_open
//	frappe_httpx_attempts_total{service}              network attempts
//	frappe_httpx_retries_total{service}               attempts beyond the first
//	frappe_httpx_attempt_duration_seconds{service}    per-attempt latency histogram
//	frappe_httpx_breaker_state{service,host}          0 closed / 1 half-open / 2 open
//	frappe_httpx_singleflight_shared_total{service}   responses shared from another flight
type instruments struct {
	Requests        *telemetry.CounterVec
	Attempts        *telemetry.CounterVec
	Retries         *telemetry.CounterVec
	AttemptDuration *telemetry.HistogramVec
	BreakerState    *telemetry.GaugeVec
	Shared          *telemetry.CounterVec
}

func newInstruments(reg *telemetry.Registry, service string) *instruments {
	if reg == nil {
		reg = telemetry.Default()
	}
	ins := &instruments{
		Requests: reg.Counter("frappe_httpx_requests_total",
			"Logical HTTP requests, by service and outcome.", "service", "outcome"),
		Attempts: reg.Counter("frappe_httpx_attempts_total",
			"Network attempts, by service.", "service"),
		Retries: reg.Counter("frappe_httpx_retries_total",
			"Attempts beyond the first, by service.", "service"),
		AttemptDuration: reg.Histogram("frappe_httpx_attempt_duration_seconds",
			"Per-attempt latency in seconds, by service.", nil, "service"),
		BreakerState: reg.Gauge("frappe_httpx_breaker_state",
			"Circuit breaker state: 0 closed, 1 half-open, 2 open.", "service", "host"),
		Shared: reg.Counter("frappe_httpx_singleflight_shared_total",
			"GET responses shared from a concurrent identical request, by service.", "service"),
	}
	// Pre-create the headline series so /metrics shows the family as soon
	// as a client exists, before any traffic.
	ins.Requests.With(service, "ok")
	return ins
}

// setBreakerState publishes b's state on the gauge.
func (ins *instruments) setBreakerState(service string, b *breaker) {
	ins.BreakerState.With(service, b.host).Set(float64(b.snapshot()))
}
