package experiments

import (
	"context"
	"strings"
	"sync"
	"testing"
)

var (
	once   sync.Once
	runner *Runner
	runErr error
)

func sharedRunner(t *testing.T) *Runner {
	t.Helper()
	once.Do(func() { runner, runErr = New(context.Background(), 0.08, 11) })
	if runErr != nil {
		t.Fatalf("New: %v", runErr)
	}
	return runner
}

func TestTable1(t *testing.T) {
	r := sharedRunner(t)
	res := r.Table1()
	if res.DTotal == 0 {
		t.Fatal("empty D-Total")
	}
	if !strings.Contains(res.Render(), "D-Sample") {
		t.Error("render missing D-Sample row")
	}
}

func TestTable2(t *testing.T) {
	r := sharedRunner(t)
	rows := r.Table2()
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1].Posts < rows[i].Posts {
			t.Error("not sorted by posts")
		}
	}
	if rows[0].Name == "" || rows[0].AppID == "" {
		t.Error("missing identity fields")
	}
	if !strings.Contains(RenderTable2(rows), "App name") {
		t.Error("render broken")
	}
}

func TestTable3(t *testing.T) {
	r := sharedRunner(t)
	res := r.Table3()
	if len(res.Rows) == 0 {
		t.Fatal("no hosting domains")
	}
	// Heavy concentration, as in the paper (83% on five domains).
	if res.Top5Share < 0.3 {
		t.Errorf("top-5 share = %.2f, want >= 0.3", res.Top5Share)
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i-1].Apps < res.Rows[i].Apps {
			t.Error("not sorted")
		}
	}
}

func TestTable4(t *testing.T) {
	out := Table4()
	if !strings.Contains(out, "wot-trust-score") {
		t.Error("Table 4 missing features")
	}
}

func TestTable5(t *testing.T) {
	r := sharedRunner(t)
	rows, err := r.Table5()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		t.Logf("ratio %d:1 -> %v", row.Ratio, row.Metrics)
		if row.Metrics.Accuracy() < 0.90 {
			t.Errorf("ratio %d accuracy = %.3f, want >= 0.90", row.Ratio, row.Metrics.Accuracy())
		}
	}
}

func TestTable6(t *testing.T) {
	r := sharedRunner(t)
	rows, err := r.Table6()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]float64{}
	for _, row := range rows {
		t.Logf("%v -> %v", row.Feature, row.Metrics)
		byName[row.Feature.String()] = row.Metrics.Accuracy()
	}
	// The description feature should dominate category/company, as in
	// Table 6 (97.8% vs 76.5% / 72.1%).
	if byName["description-specified"] <= byName["category-specified"] {
		t.Errorf("description (%.3f) should beat category (%.3f)",
			byName["description-specified"], byName["category-specified"])
	}
}

func TestFRAppEHeadline(t *testing.T) {
	r := sharedRunner(t)
	res, err := r.FRAppE()
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res.Render())
	if res.Full.Accuracy() < 0.95 {
		t.Errorf("full accuracy = %.3f, want >= 0.95 (paper 0.995)", res.Full.Accuracy())
	}
	if res.Full.FPRate() > 0.02 {
		t.Errorf("full FP = %.3f (paper 0)", res.Full.FPRate())
	}
}

func TestTable8(t *testing.T) {
	r := sharedRunner(t)
	res, err := r.Table8(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res.Render())
	if res.Flagged == 0 {
		t.Fatal("sweep flagged nothing")
	}
	validated := float64(res.Report.Validated) / float64(res.Report.Total)
	// The paper validates 98.5%; in the synthetic world whole AppNets can
	// evade MyPageKeeper, leaving their campaign names unknown, so the
	// bound is looser (see EXPERIMENTS.md).
	if validated < 0.78 {
		t.Errorf("validated = %.3f, want >= 0.78 (paper 0.985)", validated)
	}
	if res.TruePrecision < 0.9 {
		t.Errorf("precision = %.3f", res.TruePrecision)
	}
	if res.Report.ByTechnique[0] == 0 { // ValDeleted
		t.Error("no deletions validated despite the §5.3 timeline")
	}
}

func TestTable9(t *testing.T) {
	r := sharedRunner(t)
	rows := r.Table9()
	if len(rows) == 0 {
		t.Fatal("no piggyback victims")
	}
	if rows[0].Posts == 0 || rows[0].Name == "" {
		t.Errorf("bad top row: %+v", rows[0])
	}
}

func TestFig1(t *testing.T) {
	r := sharedRunner(t)
	res := r.Fig1()
	if res.Summary.Apps == 0 || res.SnapshotSize == 0 {
		t.Fatalf("empty AppNet: %+v", res.Summary)
	}
	if res.Summary.DegreeOver10 <= 0 {
		t.Error("no high-degree colluders")
	}
	if res.Summary.Promoters == 0 {
		t.Error("no promoters (Fig. 13's role split)")
	}
	t.Log(res.Render())
}

func TestFig3(t *testing.T) {
	r := sharedRunner(t)
	res := r.Fig3()
	if res.N == 0 {
		t.Fatal("no bit.ly-using apps")
	}
	// Shape: the majority of bit.ly-using malicious apps exceed 100K
	// clicks and a visible minority exceed 1M (paper: 60% / 20%).
	var over100k, over1m float64
	for _, p := range res.Curve {
		if p.X >= 1e5 && over100k == 0 {
			over100k = 1 - p.Y
		}
		if p.X >= 1e6 && over1m == 0 {
			over1m = 1 - p.Y
		}
	}
	if over100k < 0.35 {
		t.Errorf("apps over 100K clicks = %.2f, want >= 0.35", over100k)
	}
	if over1m < 0.05 {
		t.Errorf("apps over 1M clicks = %.2f, want >= 0.05", over1m)
	}
}

func TestFig4(t *testing.T) {
	r := sharedRunner(t)
	res := r.Fig4()
	if res.Median.N == 0 || res.Max.N == 0 {
		t.Fatal("no MAU samples")
	}
	t.Log(res.Median.Render(), res.Max.Render())
}

func TestFig5(t *testing.T) {
	r := sharedRunner(t)
	rows := r.Fig5()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if row.Benign <= row.Malicious {
			t.Errorf("%s: benign (%.2f) should exceed malicious (%.2f)",
				row.Field, row.Benign, row.Malicious)
		}
	}
	desc := rows[2]
	if desc.Benign < 0.85 || desc.Malicious > 0.10 {
		t.Errorf("description rates off: %+v (paper 93%% vs 1.4%%)", desc)
	}
}

func TestFig6(t *testing.T) {
	r := sharedRunner(t)
	rows := r.Fig6()
	if len(rows) == 0 {
		t.Fatal("no permissions")
	}
	if rows[0].Permission != "publish_stream" {
		t.Errorf("top permission = %s, want publish_stream", rows[0].Permission)
	}
	if rows[0].Malicious < 0.9 {
		t.Errorf("malicious publish_stream rate = %.2f", rows[0].Malicious)
	}
}

func TestFig7(t *testing.T) {
	r := sharedRunner(t)
	res := r.Fig7()
	if res.MalOne < 0.90 {
		t.Errorf("malicious single-perm = %.2f (paper 97%%)", res.MalOne)
	}
	if res.BenignOne > 0.75 || res.BenignOne < 0.35 {
		t.Errorf("benign single-perm = %.2f (paper 62%%)", res.BenignOne)
	}
}

func TestFig8(t *testing.T) {
	r := sharedRunner(t)
	res := r.Fig8()
	// D-Inst is a small subsample of all malicious apps at test scale, so
	// the app-weighted 80% quota can wobble.
	if res.MalUnknown < 0.5 {
		t.Errorf("malicious unknown WOT = %.2f (paper 80%%)", res.MalUnknown)
	}
	if res.MalBelow5 < res.MalUnknown {
		t.Error("below-5 must include unknowns")
	}
	if res.BenHigh < 0.6 {
		t.Errorf("benign high WOT = %.2f (paper ~80%%)", res.BenHigh)
	}
}

func TestFig9(t *testing.T) {
	r := sharedRunner(t)
	res := r.Fig9()
	if res.MalZero < 0.9 {
		t.Errorf("malicious empty profiles = %.2f (paper 97%%)", res.MalZero)
	}
	if res.BenZero > 0.15 {
		t.Errorf("benign empty profiles = %.2f (paper ~4%%)", res.BenZero)
	}
}

func TestFig10(t *testing.T) {
	r := sharedRunner(t)
	rows := r.Fig10()
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Clusters shrink monotonically with the threshold, and malicious
	// names cluster much harder than benign ones.
	for i := 1; i < len(rows); i++ {
		if rows[i].Malicious > rows[i-1].Malicious+1e-9 {
			t.Error("malicious clusters increased as threshold dropped")
		}
	}
	at1 := rows[0]
	if at1.Malicious > 0.45 {
		t.Errorf("malicious clusters/apps at threshold 1 = %.2f (paper < 0.2 at full scale)", at1.Malicious)
	}
	if at1.Benign < 0.8 {
		t.Errorf("benign clusters/apps at threshold 1 = %.2f (paper ~1)", at1.Benign)
	}
}

func TestFig11(t *testing.T) {
	r := sharedRunner(t)
	res := r.Fig11()
	if res.SharedNameShare < 0.6 {
		t.Errorf("name sharing = %.2f (paper 87%%)", res.SharedNameShare)
	}
	if res.MalLargest < 5 {
		t.Errorf("largest cluster = %d", res.MalLargest)
	}
	t.Log(res.Render())
}

func TestFig12(t *testing.T) {
	r := sharedRunner(t)
	res := r.Fig12()
	if res.BenZero < 0.6 {
		t.Errorf("benign zero-external = %.2f (paper 80%%)", res.BenZero)
	}
	if res.MalAtLeast < 0.2 {
		t.Errorf("malicious ratio>=1 = %.2f (paper 40%%)", res.MalAtLeast)
	}
}

func TestFig14(t *testing.T) {
	r := sharedRunner(t)
	res := r.Fig14()
	if res.CDF.N == 0 {
		t.Fatal("no coefficients")
	}
	if res.Over074 <= 0 {
		t.Error("no dense neighbourhoods (paper: 25% above 0.74)")
	}
}

func TestFig15(t *testing.T) {
	r := sharedRunner(t)
	res := r.Fig15()
	if res.AppID == "" {
		t.Skip("no neighbourhood with >= 10 collaborators at this scale")
	}
	if res.LCC <= 0.3 {
		t.Errorf("densest neighbourhood lcc = %.2f", res.LCC)
	}
	t.Log(res.Render())
}

func TestFig16(t *testing.T) {
	r := sharedRunner(t)
	res := r.Fig16()
	if res.CDF.N == 0 {
		t.Fatal("no flagged apps")
	}
	if res.Below02 <= 0 {
		t.Error("no piggyback-victim mass below 0.2")
	}
	if res.NearOne < 0.25 {
		t.Errorf("near-1 mass = %.2f; fully-flagged campaigns missing", res.NearOne)
	}
	if res.Below02 > 0.3 {
		t.Errorf("below-0.2 mass = %.2f; should be a small knee (paper ~5%%)", res.Below02)
	}
}

func TestIndirection(t *testing.T) {
	r := sharedRunner(t)
	res := r.Indirection()
	if res.Report.Sites == 0 || res.Report.UniqueTargets == 0 {
		t.Fatalf("empty survey: %+v", res.Report)
	}
	t.Log(res.Render())
}

func TestPrevalence(t *testing.T) {
	r := sharedRunner(t)
	res := r.Prevalence()
	t.Log(res.Render())
	if res.MaliciousShareOfApps < 0.10 || res.MaliciousShareOfApps > 0.16 {
		t.Errorf("malicious share = %.3f (paper 13%%)", res.MaliciousShareOfApps)
	}
	if res.FromMaliciousApps < 0.3 {
		t.Errorf("flagged posts from malicious apps = %.2f (paper 53%%)", res.FromMaliciousApps)
	}
	if res.FromNoApp <= 0 {
		t.Error("no app-less flagged posts (paper 27%)")
	}
	sum := res.FromMaliciousApps + res.FromNoApp + res.FromBenignApps
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("attribution shares sum to %.3f", sum)
	}
}

func TestRobust(t *testing.T) {
	r := sharedRunner(t)
	res, err := r.Robust()
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res.Render())
	if res.Robust.Accuracy() < 0.88 {
		t.Errorf("robust accuracy = %.3f (paper 98.2%%)", res.Robust.Accuracy())
	}
}

func TestAblationKernels(t *testing.T) {
	r := sharedRunner(t)
	rows, err := r.AblationKernels()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		t.Logf("%s -> %v", row.Kernel, row.Metrics)
		if row.Metrics.Accuracy() < 0.85 {
			t.Errorf("%s accuracy = %.3f", row.Kernel, row.Metrics.Accuracy())
		}
	}
}

func TestAblationLabelNoise(t *testing.T) {
	r := sharedRunner(t)
	rows, err := r.AblationLabelNoise()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		t.Logf("noise %.3f -> %v", row.NoiseRate, row.Metrics)
	}
	// At the paper's 2.6% noise bound, accuracy must stay high.
	if rows[1].Metrics.Accuracy() < 0.90 {
		t.Errorf("accuracy at 2.6%% noise = %.3f", rows[1].Metrics.Accuracy())
	}
}

func TestAblationGridSearch(t *testing.T) {
	r := sharedRunner(t)
	res, err := r.AblationGridSearch()
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res.Render())
	if res.Default.Accuracy() < 0.95 {
		t.Errorf("default accuracy = %.3f", res.Default.Accuracy())
	}
	// Tuning should not be dramatically worse than defaults.
	if res.Tuned.Accuracy()+0.03 < res.Default.Accuracy() {
		t.Errorf("tuned (%.3f) far below default (%.3f)",
			res.Tuned.Accuracy(), res.Default.Accuracy())
	}
	if res.BestC == 0 || res.BestG == 0 {
		t.Error("grid search returned no parameters")
	}
}

func TestAblationLearnedMPK(t *testing.T) {
	r := sharedRunner(t)
	res, err := r.AblationLearnedMPK()
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res.Render())
	if res.LearnedFlagged < res.HeuristicFlagged {
		t.Error("sticky flags cannot decrease")
	}
	if res.NewURLs == 0 {
		t.Error("the learned model should catch at least some evaded URLs")
	}
	// Coverage must stay sane: not everything becomes malicious.
	if res.BenignFPAfter > res.MaliciousApps/2 {
		t.Errorf("benign collateral = %d, looks like the model went rogue", res.BenignFPAfter)
	}
}

func TestCountermeasures(t *testing.T) {
	r := sharedRunner(t)
	res := r.Countermeasures()
	t.Log(res.Render())
	b, h := res.Baseline, res.Hardened
	if b.MaliciousApps != h.MaliciousApps {
		t.Errorf("populations differ: %d vs %d", b.MaliciousApps, h.MaliciousApps)
	}
	// The promotion ban must collapse the collusion graph.
	if h.PromotionEdges != 0 {
		t.Errorf("hardened promotion edges = %d, want 0", h.PromotionEdges)
	}
	if b.PromotionEdges == 0 {
		t.Error("baseline has no promotion edges")
	}
	// Client-ID enforcement removes the indirection trick entirely.
	if h.ClientIDMismatch != 0 {
		t.Errorf("hardened client-ID mismatches = %d, want 0", h.ClientIDMismatch)
	}
	if b.ClientIDMismatch == 0 {
		t.Error("baseline has no client-ID mismatches")
	}
	// prompt_feed authentication rejects every piggybacked post.
	if h.PiggybackDelivered != 0 || h.PiggybackRejected == 0 {
		t.Errorf("hardened piggyback delivered=%d rejected=%d", h.PiggybackDelivered, h.PiggybackRejected)
	}
	if h.VictimsFlagged != 0 {
		t.Errorf("hardened victims flagged = %d, want 0", h.VictimsFlagged)
	}
	if b.PiggybackDelivered == 0 || b.VictimsFlagged == 0 {
		t.Error("baseline piggybacking missing")
	}
	// Detection of truly malicious apps should not collapse: campaigns
	// still post scam links.
	if h.DetectedMalicious < b.DetectedMalicious/2 {
		t.Errorf("hardened detection fell too far: %d vs %d", h.DetectedMalicious, b.DetectedMalicious)
	}
}
