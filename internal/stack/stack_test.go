package stack

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"frappe/internal/synth"
	"frappe/internal/telemetry"
)

func TestStartServesAllServices(t *testing.T) {
	cfg := synth.TestConfig()
	cfg.Scale = 0.005
	w := synth.Generate(cfg)
	st, err := Start(w)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	for name, url := range map[string]string{
		"graph":        st.GraphURL,
		"bitly":        st.BitlyURL,
		"wot":          st.WOTURL,
		"socialbakers": st.SocialBakersURL,
		"redirector":   st.RedirectorURL,
	} {
		if !strings.HasPrefix(url, "http://127.0.0.1:") {
			t.Errorf("%s URL = %q", name, url)
		}
		resp, err := http.Get(url + "/")
		if err != nil {
			t.Fatalf("%s unreachable: %v", name, err)
		}
		resp.Body.Close()
	}

	// The Graph API must actually serve this world's apps.
	graph, _, wotc, sb := st.Clients()
	liveID := ""
	for _, id := range w.BenignIDs {
		if _, err := w.Platform.Lookup(id); err == nil {
			liveID = id
			break
		}
	}
	if liveID == "" {
		t.Fatal("no live benign app")
	}
	n, err := graph.Node(context.Background(), liveID, 1)
	if err != nil || n.Summary.Name == "" {
		t.Errorf("graph Node = %+v, %v", n, err)
	}
	if score, err := wotc.Score(context.Background(), "apps.facebook.com"); err != nil || score < 80 {
		t.Errorf("WOT Score = %d, %v", score, err)
	}
	if _, err := sb.Rating(liveID); err != nil {
		// Not all benign apps are vetted; just exercise the endpoint.
		t.Logf("rating for %s: %v", liveID, err)
	}

}

// TestMiddlewareRecordsAndMetricsServe asserts every service's middleware
// counts requests into the stack's registry and that /metrics exposes them
// in Prometheus text format.
func TestMiddlewareRecordsAndMetricsServe(t *testing.T) {
	cfg := synth.TestConfig()
	cfg.Scale = 0.005
	w := synth.Generate(cfg)
	reg := telemetry.New()
	st, err := StartOpts(w, Options{Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	services := map[string]string{
		"graph":        st.GraphURL,
		"bitly":        st.BitlyURL,
		"wot":          st.WOTURL,
		"socialbakers": st.SocialBakersURL,
		"redirector":   st.RedirectorURL,
	}
	for name, url := range services {
		for i := 0; i < 2; i++ {
			resp, err := http.Get(url + "/")
			if err != nil {
				t.Fatalf("%s unreachable: %v", name, err)
			}
			resp.Body.Close()
		}
	}
	for name := range services {
		var total uint64
		for _, code := range []string{"2xx", "3xx", "4xx", "5xx"} {
			total += reg.CounterValue("frappe_http_requests_total", name, code)
		}
		if total != 2 {
			t.Errorf("%s recorded %d requests, want 2", name, total)
		}
		if _, count := reg.HistogramSum("frappe_http_request_duration_seconds", name); count != 2 {
			t.Errorf("%s latency histogram count = %d, want 2", name, count)
		}
	}

	// The registry's /metrics handler serves what the middleware recorded.
	ms := httptest.NewServer(reg.Handler())
	defer ms.Close()
	resp, err := http.Get(ms.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE frappe_http_requests_total counter",
		"# TYPE frappe_http_request_duration_seconds histogram",
		`frappe_http_requests_total{service="graph",code=`,
		`frappe_http_request_duration_seconds_bucket{service="graph",le="+Inf"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
}

func TestCloseIsIdempotentAndStopsServing(t *testing.T) {
	cfg := synth.TestConfig()
	cfg.Scale = 0.005
	w := synth.Generate(cfg)
	st, err := Start(w)
	if err != nil {
		t.Fatal(err)
	}
	url := st.GraphURL
	st.Close()
	st.Close() // double close must not panic
	if _, err := http.Get(url + "/"); err == nil {
		t.Error("server still reachable after Close")
	}
}
