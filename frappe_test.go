package frappe

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"frappe/internal/crawler"
	"frappe/internal/graphapi"
	"frappe/internal/synth"
)

var (
	once  sync.Once
	world *World
	data  *Datasets
)

func sharedWorld(t *testing.T) (*World, *Datasets) {
	t.Helper()
	once.Do(func() {
		cfg := synth.Default(0.06)
		cfg.MaxMaterializedPostsPerApp = 80
		world = GenerateWorld(cfg)
		var err error
		data, err = BuildDatasets(context.Background(), world)
		if err != nil {
			t.Fatalf("BuildDatasets: %v", err)
		}
	})
	if data == nil {
		t.Fatal("shared world unavailable")
	}
	return world, data
}

func TestEndToEndTrainAndClassify(t *testing.T) {
	_, d := sharedWorld(t)
	records, labels := CompleteSample(d)
	m, err := CrossValidate(records, labels, 5, Options{Features: FullFeatures(), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("public API CV: %v", m)
	if m.Accuracy() < 0.93 {
		t.Errorf("accuracy = %.3f", m.Accuracy())
	}
}

func TestWatchdogOverHTTP(t *testing.T) {
	w, d := sharedWorld(t)
	records, labels := LabeledSample(d)
	clf, err := Train(records, labels, Options{Features: LiteFeatures(), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	st, err := StartServices(w)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Round-trip the classifier through its serialised form, like a real
	// watchdog deployment would.
	var buf bytes.Buffer
	if err := clf.Save(&buf); err != nil {
		t.Fatal(err)
	}
	wd, err := NewWatchdogFrom(&buf, st.GraphURL, st.WOTURL)
	if err != nil {
		t.Fatal(err)
	}

	// A live malicious app and a live benign app.
	var malID, benID string
	for _, id := range w.MaliciousIDs {
		// Pick a live, classic (unpolished) scam app.
		app, err := w.Platform.Lookup(id)
		if err == nil && app.Description == "" {
			malID = id
			break
		}
	}
	for _, id := range w.BenignIDs {
		if _, err := w.Platform.Lookup(id); err == nil {
			benID = id
			break
		}
	}
	if malID == "" || benID == "" {
		t.Fatal("no live apps to evaluate")
	}
	vm, err := wd.Evaluate(context.Background(), malID)
	if err != nil {
		t.Fatalf("Evaluate(malicious): %v", err)
	}
	if !vm.Malicious {
		t.Errorf("malicious app %s classified benign (score %.3f)", malID, vm.Score)
	}
	vb, err := wd.Evaluate(context.Background(), benID)
	if err != nil {
		t.Fatalf("Evaluate(benign): %v", err)
	}
	if vb.Malicious {
		t.Errorf("benign app %s classified malicious (score %.3f)", benID, vb.Score)
	}

	// Deleted apps cannot be evaluated.
	var deleted string
	for _, id := range w.MaliciousIDs {
		if _, err := w.Platform.Lookup(id); err != nil {
			deleted = id
			break
		}
	}
	if deleted != "" {
		if _, err := wd.Evaluate(context.Background(), deleted); !errors.Is(err, ErrNotClassifiable) {
			t.Errorf("deleted app err = %v, want ErrNotClassifiable", err)
		}
	}

	// The first 500 live apps in ID order: Evaluate reads one profile
	// post over HTTP, and must reach the verdict, score bits included,
	// that the classifier gives an in-process crawl of the whole feed.
	local, err := crawler.New(crawler.Config{Graph: graphapi.Local{Platform: w.Platform}, WOT: w.WOT, WholeFeed: true})
	if err != nil {
		t.Fatal(err)
	}
	ids := w.Platform.AppIDs()
	sort.Strings(ids)
	var live int
	var byPosts [3]int // apps with 0, 1 and more than one post
	for _, id := range ids {
		if live == 500 {
			break
		}
		if _, err := w.Platform.Lookup(id); err != nil {
			continue
		}
		live++
		r := local.CrawlApp(context.Background(), id)
		byPosts[min(len(r.Feed), 2)]++
		want, werr := clf.Classify(AppRecord{ID: id, Crawl: r})
		got, gerr := wd.Evaluate(context.Background(), id)
		if werr != nil || gerr != nil || got.AppID != want.AppID || got.Malicious != want.Malicious ||
			math.Float64bits(got.Score) != math.Float64bits(want.Score) {
			t.Errorf("app %s: Evaluate over HTTP = %+v, %v; classifier on the in-process crawl = %+v, %v", id, got, gerr, want, werr)
		}
	}
	if live < 500 || byPosts[0] == 0 || byPosts[1] == 0 || byPosts[2] == 0 {
		t.Errorf("%d live apps checked, with 0, 1 and more posts: %v; want 500 with each kind", live, byPosts)
	}
}

func TestNewWatchdogValidation(t *testing.T) {
	if _, err := NewWatchdog(nil, "http://x", "http://y"); err == nil {
		t.Error("nil classifier: want error")
	}
	if _, err := NewWatchdogFrom(bytes.NewReader([]byte("bogus")), "http://x", "http://y"); err == nil {
		t.Error("bogus model: want error")
	}
}

func TestForensicsFacade(t *testing.T) {
	w, d := sharedWorld(t)
	summary := BuildCollaborationGraph(w, d.Malicious)
	if summary.Apps == 0 || summary.Edges == 0 {
		t.Errorf("empty collaboration graph: %+v", summary)
	}
	findings := DetectPiggybacking(w, 0.2)
	if len(findings) == 0 {
		t.Error("no piggybacking findings")
	}
	for _, f := range findings[:1] {
		if f.Name == "" {
			t.Error("finding lacks app name")
		}
	}
}

func TestSampleHelpers(t *testing.T) {
	_, d := sharedWorld(t)
	records, labels := LabeledSample(d)
	if len(records) != len(labels) || len(records) == 0 {
		t.Fatalf("labeled sample: %d records %d labels", len(records), len(labels))
	}
	sub, subL, err := SampleRatio(records, labels, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	var mal int
	for _, l := range subL {
		if l {
			mal++
		}
	}
	if len(sub)-mal != 4*mal {
		t.Errorf("ratio wrong: %d benign vs %d malicious", len(sub)-mal, mal)
	}
}

func TestWatchdogService(t *testing.T) {
	w, d := sharedWorld(t)
	records, labels := LabeledSample(d)
	clf, err := Train(records, labels, Options{Features: LiteFeatures(), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	st, err := StartServices(w)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	wd, err := NewWatchdog(clf, st.GraphURL, st.WOTURL)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(WatchdogHandler(wd, 10*time.Second))
	defer srv.Close()

	// Liveness.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}

	// One live classic scam, one live benign app, one deleted app.
	var mal, ben, deleted string
	for _, id := range w.MaliciousIDs {
		app, err := w.Platform.Lookup(id)
		if err != nil {
			if deleted == "" {
				deleted = id
			}
			continue
		}
		if mal == "" && app.Description == "" {
			mal = id
		}
	}
	for _, id := range w.BenignIDs {
		if _, err := w.Platform.Lookup(id); err == nil {
			ben = id
			break
		}
	}
	check := func(id string) Assessment {
		t.Helper()
		resp, err := http.Get(srv.URL + "/check?app=" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var a Assessment
		if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
			t.Fatal(err)
		}
		return a
	}
	if a := check(mal); !a.Malicious {
		t.Errorf("scam assessment = %+v", a)
	}
	if a := check(ben); a.Malicious {
		t.Errorf("benign assessment = %+v", a)
	}
	if a := check(deleted); !a.Deleted || !a.Malicious {
		t.Errorf("deleted assessment = %+v", a)
	}

	// Ranking: deleted first, then the scam, then the benign app.
	resp, err = http.Get(srv.URL + "/rank?app=" + ben + "&app=" + mal + "&app=" + deleted)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ranked []Assessment
	if err := json.NewDecoder(resp.Body).Decode(&ranked); err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 3 {
		t.Fatalf("ranked = %d rows", len(ranked))
	}
	if ranked[0].AppID != deleted || ranked[1].AppID != mal || ranked[2].AppID != ben {
		t.Errorf("rank order: %s %s %s (want deleted, scam, benign)",
			ranked[0].AppID, ranked[1].AppID, ranked[2].AppID)
	}

	// Bad requests.
	for _, path := range []string{"/check", "/rank"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s without params = %d", path, resp.StatusCode)
		}
	}
}
