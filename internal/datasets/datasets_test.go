package datasets

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"frappe/internal/synth"
)

var (
	once  sync.Once
	world *synth.World
	data  *Datasets
)

func sharedData(t *testing.T) (*synth.World, *Datasets) {
	t.Helper()
	once.Do(func() {
		world = synth.Generate(synth.TestConfig())
		b := &Builder{World: world}
		var err error
		data, err = b.Build(context.Background())
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
	})
	if data == nil {
		t.Fatal("shared dataset failed to build")
	}
	return world, data
}

func TestDTotalCoversAllObservedApps(t *testing.T) {
	w, d := sharedData(t)
	if len(d.DTotal) != w.Platform.NumApps() {
		t.Errorf("DTotal = %d, want %d (every app posts at least once)",
			len(d.DTotal), w.Platform.NumApps())
	}
}

func TestDSampleBalance(t *testing.T) {
	_, d := sharedData(t)
	if len(d.Malicious) == 0 {
		t.Fatal("no malicious apps in D-Sample")
	}
	if len(d.Benign) != len(d.Malicious) {
		t.Errorf("D-Sample unbalanced: %d benign vs %d malicious",
			len(d.Benign), len(d.Malicious))
	}
}

func TestWhitelistCatchesVictims(t *testing.T) {
	w, d := sharedData(t)
	whitelisted := map[string]bool{}
	for _, id := range d.Whitelisted {
		whitelisted[id] = true
	}
	caught := 0
	for _, victim := range w.PopularIDs {
		if whitelisted[victim] {
			caught++
		}
	}
	if caught == 0 {
		t.Error("no piggybacking victim was whitelisted")
	}
	// No whitelisted app may end up labelled malicious.
	for _, id := range d.Malicious {
		if whitelisted[id] {
			t.Errorf("whitelisted app %s labelled malicious", id)
		}
	}
}

func TestDSampleMaliciousGroundTruth(t *testing.T) {
	w, d := sharedData(t)
	wrong := 0
	for _, id := range d.Malicious {
		if !w.IsMalicious(id) {
			wrong++
		}
	}
	// §5.3 bounds the training-label false-positive rate at 2.6%.
	if frac := float64(wrong) / float64(len(d.Malicious)); frac > 0.03 {
		t.Errorf("malicious label noise = %.3f, want <= 0.03", frac)
	}
	wrongBenign := 0
	for _, id := range d.Benign {
		if w.IsMalicious(id) {
			wrongBenign++
		}
	}
	if frac := float64(wrongBenign) / float64(len(d.Benign)); frac > 0.05 {
		t.Errorf("benign label noise = %.3f, want <= 0.05", frac)
	}
}

func TestCrawlSubsetsShrinkLikeThePaper(t *testing.T) {
	_, d := sharedData(t)
	sb, sm := d.DSummary()
	ib, im := d.DInst()
	cb, cm := d.DComplete()

	// Malicious summary success tracks the deleted-by-crawl rate (~40%
	// alive), benign stays near-complete.
	malFrac := float64(len(sm)) / float64(len(d.Malicious))
	benFrac := float64(len(sb)) / float64(len(d.Benign))
	if malFrac < 0.2 || malFrac > 0.6 {
		t.Errorf("malicious summary fraction = %.2f, want ~0.4", malFrac)
	}
	if benFrac < 0.9 {
		t.Errorf("benign summary fraction = %.2f, want >= 0.9", benFrac)
	}
	// D-Inst is a strict subset of live apps on both sides.
	if len(im) > len(sm) || len(ib) > len(sb) {
		t.Errorf("D-Inst larger than D-Summary: inst=(%d,%d) summary=(%d,%d)",
			len(ib), len(im), len(sb), len(sm))
	}
	// D-Complete nests inside D-Inst.
	if len(cm) > len(im) || len(cb) > len(ib) {
		t.Error("D-Complete larger than D-Inst")
	}
	if len(cm) == 0 || len(cb) == 0 {
		t.Error("empty D-Complete")
	}
}

func TestCrawlResultsRespectDeletion(t *testing.T) {
	w, d := sharedData(t)
	for id, r := range d.Crawl {
		deletedAtCrawl := w.DeleteMonthOf(id) > 0 && w.DeleteMonthOf(id) <= w.Config.CrawlMonth
		if deletedAtCrawl && r.SummaryErr == nil {
			t.Errorf("deleted app %s has a summary", id)
		}
		if !deletedAtCrawl && r.SummaryErr != nil {
			t.Errorf("live app %s failed the summary crawl: %v", id, r.SummaryErr)
		}
	}
}

func TestTable1Shape(t *testing.T) {
	_, d := sharedData(t)
	rows := d.Table1()
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].Name != "D-Sample" || rows[5].Name != "D-Complete" {
		t.Errorf("row names wrong: %+v", rows)
	}
	// Monotone shrinkage on the malicious side.
	if rows[2].Malicious > rows[1].Malicious ||
		rows[5].Malicious > rows[3].Malicious {
		t.Errorf("malicious counts should shrink down the table: %+v", rows)
	}
}

func TestLabels(t *testing.T) {
	_, d := sharedData(t)
	labels := d.Labels()
	if len(labels) != len(d.Malicious)+len(d.Benign) {
		t.Errorf("labels = %d", len(labels))
	}
	if labels[d.Malicious[0]] != LabelMalicious || labels[d.Benign[0]] != LabelBenign {
		t.Error("label assignment wrong")
	}
	if LabelMalicious.String() != "malicious" || LabelBenign.String() != "benign" {
		t.Error("label names wrong")
	}
}

// TestCrawlWorkerEquivalence pins the parallel in-process crawl: any
// worker count produces exactly the same result map as a serial crawl.
func TestCrawlWorkerEquivalence(t *testing.T) {
	w, _ := sharedData(t)
	serial := &Builder{World: w, Workers: 1}
	wide := &Builder{World: w, Workers: 8}
	ds, err := serial.Build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dw, err := wide.Build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Crawl) != len(dw.Crawl) {
		t.Fatalf("crawl sizes differ: %d vs %d", len(ds.Crawl), len(dw.Crawl))
	}
	for id, rs := range ds.Crawl {
		rw, ok := dw.Crawl[id]
		if !ok {
			t.Fatalf("parallel crawl missing %s", id)
		}
		if !reflect.DeepEqual(rs, rw) {
			t.Fatalf("crawl result for %s differs:\n  serial: %+v\n  wide:   %+v", id, rs, rw)
		}
	}
	if !reflect.DeepEqual(ds.Stats, dw.Stats) {
		t.Fatal("dataset Stats differ across crawl worker counts")
	}
}

// TestBuildHonorsCancellation pins the context plumbing added for the lab
// DAG: a cancelled context aborts Select, CrawlSample and Build instead of
// silently completing the work.
func TestBuildHonorsCancellation(t *testing.T) {
	w, _ := sharedData(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	b := &Builder{World: w}
	if _, err := b.Build(ctx); err == nil {
		t.Error("Build with cancelled context succeeded, want error")
	}
	if _, err := b.Select(ctx); err == nil {
		t.Error("Select with cancelled context succeeded, want error")
	}

	sel, err := b.Select(context.Background())
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if _, err := b.CrawlSample(ctx, sel); err == nil {
		t.Error("CrawlSample with cancelled context succeeded, want error")
	}
}
