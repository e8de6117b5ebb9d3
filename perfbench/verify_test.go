package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"frappe"
	"frappe/internal/experiments"
	"frappe/internal/lab"
	"frappe/internal/mypagekeeper"
	"frappe/internal/synth"
	"frappe/internal/wal"
)

// Each output check must reject a deliberately broken output. The fixtures
// are small worlds; the checks are the ones the workloads run.

const testScale = 0.01

var (
	servingOnce sync.Once
	servingW    *frappe.World
	servingClf  *frappe.Classifier
	servingErr  error
)

// testServing builds a small world and its Lite classifier once.
func testServing(t *testing.T) (*frappe.World, *frappe.Classifier) {
	t.Helper()
	servingOnce.Do(func() {
		servingW = frappe.GenerateWorld(frappe.DefaultConfig(testScale))
		d, err := frappe.BuildDatasets(context.Background(), servingW)
		if err != nil {
			servingErr = err
			return
		}
		records, labels := frappe.LabeledSample(d)
		servingClf, servingErr = frappe.Train(records, labels,
			frappe.Options{Features: frappe.LiteFeatures(), Seed: 2})
	})
	if servingErr != nil {
		t.Fatal(servingErr)
	}
	return servingW, servingClf
}

// oracleServed answers every app the way a correct server would.
func oracleServed(w *frappe.World, clf *frappe.Classifier) (map[string]servedVerdict, string, string) {
	served := make(map[string]servedVerdict)
	var live, deleted string
	for _, id := range append(append([]string(nil), w.BenignIDs...), w.MaliciousIDs...) {
		o := oracleAssess(w, clf, id)
		if o.Deleted {
			served[id] = servedVerdict{Status: 404, Malicious: true, Deleted: true}
			deleted = id
			continue
		}
		served[id] = servedVerdict{Status: 200, Malicious: o.Malicious, Score: o.Score}
		live = id
	}
	return served, live, deleted
}

func TestCheckVerdicts(t *testing.T) {
	w, clf := testServing(t)
	oracle := func(id string) oracleVerdict { return oracleAssess(w, clf, id) }
	served, live, deleted := oracleServed(w, clf)
	if live == "" || deleted == "" {
		t.Fatalf("fixture world needs a live and a deleted app (live %q, deleted %q)", live, deleted)
	}
	if problems, acc := checkVerdicts(served, oracle, w.IsMalicious, accuracyFloor); len(problems) > 0 || acc.live == 0 {
		t.Fatalf("correct answers rejected (%d live): %v", acc.live, problems)
	}

	flipped := copyServed(served)
	v := flipped[live]
	v.Score = math.Float64frombits(math.Float64bits(v.Score) ^ 1)
	flipped[live] = v
	if problems, _ := checkVerdicts(flipped, oracle, w.IsMalicious, accuracyFloor); !mentions(problems, live) {
		t.Errorf("a flipped score bit on %s was accepted: %v", live, problems)
	}

	resurrected := copyServed(served)
	resurrected[deleted] = servedVerdict{Status: 200, Malicious: true}
	if problems, _ := checkVerdicts(resurrected, oracle, w.IsMalicious, accuracyFloor); !mentions(problems, deleted) {
		t.Errorf("a deleted app served as live was accepted: %v", problems)
	}

	if problems, _ := checkVerdicts(served, oracle, w.IsMalicious, 1.01); !mentions(problems, "floor") {
		t.Errorf("accuracy below the floor was accepted: %v", problems)
	}
}

func copyServed(m map[string]servedVerdict) map[string]servedVerdict {
	out := make(map[string]servedVerdict, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func mentions(problems []string, s string) bool {
	for _, p := range problems {
		if strings.Contains(p, s) {
			return true
		}
	}
	return false
}

var (
	pipelineOnce sync.Once
	pipelineW    *synth.World
	pipelineLog  *wal.Log
	pipelineErr  error
	// fixtureDir holds the fixture world's WAL; TestMain removes it.
	fixtureDir string
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		panic(err)
	}
	fixtureDir = dir
	code := m.Run()
	if pipelineLog != nil {
		pipelineLog.Close()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// testPipelineWorld generates a small world with its ingestion WAL once.
func testPipelineWorld(t *testing.T) (*synth.World, *wal.Log) {
	t.Helper()
	pipelineOnce.Do(func() {
		cfg := synth.Default(testScale)
		cfg.WALDir = filepath.Join(fixtureDir, "wal")
		pipelineW = synth.Generate(cfg)
		pipelineLog, pipelineErr = wal.Open(cfg.WALDir, wal.Options{})
	})
	if pipelineErr != nil {
		t.Fatal(pipelineErr)
	}
	return pipelineW, pipelineLog
}

func TestCheckMonitor(t *testing.T) {
	w, log := testPipelineWorld(t)
	replayed := newMonitor(w)
	if _, err := mypagekeeper.Replay(replayed, log, 0, nil); err != nil {
		t.Fatal(err)
	}
	if problems := checkMonitor("replayed", viewOf(w.Monitor), replayed); len(problems) > 0 {
		t.Fatalf("a faithful replay was rejected: %v", problems)
	}
	unsubscribed := mypagekeeper.New(mypagekeeper.DefaultClassifierConfig())
	if _, err := mypagekeeper.Replay(unsubscribed, log, 0, nil); err != nil {
		t.Fatal(err)
	}
	if problems := checkMonitor("unsubscribed", viewOf(w.Monitor), unsubscribed); len(problems) == 0 {
		t.Error("a replay without subscribers was accepted")
	}
}

func TestCheckLogsEqual(t *testing.T) {
	_, log := testPipelineWorld(t)
	payloads, err := readLog(log)
	if err != nil {
		t.Fatal(err)
	}
	copyLog := func(edit func(i int, p []byte) []byte) *wal.Log {
		l, err := wal.Open(t.TempDir(), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		for i, p := range payloads {
			if p = edit(i, p); p == nil {
				continue
			}
			if _, err := l.Append(p); err != nil {
				t.Fatal(err)
			}
		}
		return l
	}
	if err := checkLogsEqual(log, copyLog(func(_ int, p []byte) []byte { return p })); err != nil {
		t.Fatalf("an identical log was rejected: %v", err)
	}
	last := len(payloads) - 1
	if err := checkLogsEqual(log, copyLog(func(i int, p []byte) []byte {
		if i == last {
			return nil
		}
		return p
	})); err == nil {
		t.Error("a log missing its last event was accepted")
	}
	if err := checkLogsEqual(log, copyLog(func(i int, p []byte) []byte {
		if i == last/2 {
			p = append([]byte(nil), p...)
			p[len(p)-1] ^= 1
		}
		return p
	})); err == nil {
		t.Error("a log with one altered event was accepted")
	}
}

func TestCheckReport(t *testing.T) {
	w, log := testPipelineWorld(t)
	replayed := newMonitor(w)
	if _, err := mypagekeeper.Replay(replayed, log, 0, nil); err != nil {
		t.Fatal(err)
	}
	store, err := lab.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stages := experiments.Pipeline(experiments.PipelineOptions{Scale: testScale, Quick: true})
	opts := lab.Options{Store: store, Workers: 2}
	cold, err := lab.Run(context.Background(), stages, opts)
	if err != nil {
		t.Fatal(err)
	}
	report, _ := cold.Artifact("report")
	cached, err := lab.Run(context.Background(), stages, opts)
	if err != nil {
		t.Fatal(err)
	}
	if problems := checkCachedRun(report, cached); len(problems) > 0 {
		t.Fatalf("a fully cached re-run was rejected: %v", problems)
	}
	edited := append([]byte(nil), report...)
	edited[len(edited)-2] ^= 1
	if problems := checkCachedRun(edited, cached); len(problems) == 0 {
		t.Error("a cached report differing from the cold one was accepted")
	}
	cold.Misses = 1
	if problems := checkCachedRun(report, cold); len(problems) == 0 {
		t.Error("a re-run with a miss was accepted")
	}

	total, malicious := monitorCounts(w, replayed)
	if problems := checkTable1(string(report), total, malicious); len(problems) > 0 {
		t.Fatalf("the report's own Table 1 was rejected: %v", problems)
	}
	row := regexp.MustCompile(`D-Total(\s+)(\d+) total`)
	bumped := row.ReplaceAllStringFunc(string(report), func(s string) string {
		m := row.FindStringSubmatch(s)
		n, _ := strconv.Atoi(m[2])
		return "D-Total" + m[1] + strconv.Itoa(n+1) + " total"
	})
	if bumped == string(report) {
		t.Fatal("report has no D-Total row to edit")
	}
	if problems := checkTable1(bumped, total, malicious); len(problems) == 0 {
		t.Error("a report with D-Total edited was accepted")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the runs print in
// step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %v, the benchmark runs %d", names, len(workloads))
	}
	for _, n := range names {
		if workloads[n] == nil {
			t.Errorf("BENCHMARK.json workload %q is not run by the benchmark", n)
		}
	}
	want := map[string]string{}
	for _, m := range endToEnd {
		want[m.name] = m.unit
	}
	if len(doc.EndToEnd) != len(want) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, runs print %d", len(doc.EndToEnd), len(want))
	}
	for _, m := range doc.EndToEnd {
		if want[m.Name] != m.Unit {
			t.Errorf("end-to-end %s: BENCHMARK.json unit %q, runs print %q", m.Name, m.Unit, want[m.Name])
		}
	}
	table := layerTable(nil)
	if len(doc.PerLayer) != len(table) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, traced runs print %d", len(doc.PerLayer), len(table))
	}
	for _, m := range doc.PerLayer {
		if table[m.Name].Unit != m.Unit {
			t.Errorf("per-layer %s: BENCHMARK.json unit %q, runs print %q", m.Name, m.Unit, table[m.Name].Unit)
		}
	}
}
