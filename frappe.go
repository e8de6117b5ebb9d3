// Package frappe is a Go reproduction of "FRAppE: Detecting Malicious
// Facebook Applications" (Rahman, Huang, Madhyastha, Faloutsos — CoNEXT
// 2012): a classifier that decides, given a Facebook application's ID,
// whether the app is malicious.
//
// The original system was built on the 2011-2012 Facebook platform and a
// proprietary MyPageKeeper crawl of 2.2M users; this package rebuilds every
// substrate as a faithful simulator (see DESIGN.md) and reproduces the
// paper's measurement, classification, and forensics pipelines on top:
//
//   - GenerateWorld creates a calibrated synthetic Facebook-like universe:
//     benign developers, AppNet-operating hackers, nine months of posting,
//     bit.ly links with click traffic, WOT reputations, app deletion.
//   - BuildDatasets assembles D-Total / D-Sample / D-Summary / D-Inst /
//     D-ProfileFeed / D-Complete exactly as §2.3 describes, crawling the
//     simulated Graph API in process with the crawler NewWatchdog uses
//     over HTTP.
//   - Train / CrossValidate fit the SVM classifier (FRAppE Lite's seven
//     on-demand features, or full FRAppE with the two aggregation-based
//     features) and evaluate it the way Tables 5-6 and §5.2 do.
//   - NewWatchdog evaluates a single app ID on demand against live (simulated)
//     services — the browser-extension scenario the paper envisions.
//   - BuildCollaborationGraph / SurveySites / DetectPiggybacking run the
//     §6 AppNet forensics.
//
// See the examples directory for runnable end-to-end scenarios and
// EXPERIMENTS.md for paper-vs-measured numbers of every table and figure.
package frappe

import (
	"context"

	"frappe/internal/core"
	"frappe/internal/datasets"
	"frappe/internal/forensics"
	"frappe/internal/stack"
	"frappe/internal/synth"
)

// World is a generated synthetic universe (platform, services, monitor).
type World = synth.World

// WorldConfig parameterises world generation; every default is calibrated
// against a number the paper reports.
type WorldConfig = synth.Config

// Datasets is the assembled corpus of §2.3 (Table 1).
type Datasets = datasets.Datasets

// AppRecord bundles what FRAppE knows about one app: its on-demand crawl
// and, when available, MyPageKeeper's aggregation view.
type AppRecord = core.AppRecord

// Classifier is a trained FRAppE instance.
type Classifier = core.Classifier

// Verdict is one classification outcome.
type Verdict = core.Verdict

// Metrics is a confusion-matrix summary (accuracy / FP rate / FN rate).
type Metrics = core.Metrics

// Options configures training (feature set, SVM parameters, seed).
type Options = core.Options

// Feature identifies one classifier input.
type Feature = core.Feature

// Stack runs a world's services as loopback HTTP servers.
type Stack = stack.Stack

// ServiceFaults are per-service fault-injection knobs (error rate, hang
// rate, added latency) for a running stack.
type ServiceFaults = stack.ServiceFaults

// FaultSpec configures deterministic, seeded fault injection across a
// stack's services; see StartServicesWithFaults.
type FaultSpec = stack.FaultSpec

// DefaultConfig returns the paper-calibrated world configuration at the
// given scale; 1.0 reproduces the full 111K-app corpus, experiments
// default to 0.1.
func DefaultConfig(scale float64) WorldConfig { return synth.Default(scale) }

// GenerateWorld builds a synthetic world.
func GenerateWorld(cfg WorldConfig) *World { return synth.Generate(cfg) }

// StartServices exposes the world's services (Graph API, bit.ly, WOT,
// Social Bakers, indirection redirector) over loopback HTTP.
func StartServices(w *World) (*Stack, error) { return stack.Start(w) }

// StartServicesWithFaults is StartServices with deterministic fault
// injection: every service is wrapped with seeded error/hang/latency
// middleware so resilience behaviour is reproducible. A nil spec behaves
// exactly like StartServices.
func StartServicesWithFaults(w *World, faults *FaultSpec) (*Stack, error) {
	return stack.StartOpts(w, stack.Options{Faults: faults})
}

// BuildDatasets assembles the corpus, crawling the world in process.
func BuildDatasets(ctx context.Context, w *World) (*Datasets, error) {
	b := &datasets.Builder{World: w}
	return b.Build(ctx)
}

// Records assembles AppRecords for the given app IDs from a built corpus.
func Records(d *Datasets, ids []string) []AppRecord {
	out := make([]AppRecord, 0, len(ids))
	for _, id := range ids {
		out = append(out, AppRecord{ID: id, Crawl: d.Crawl[id], Stats: d.Stats[id]})
	}
	return out
}

// LabeledSample returns D-Sample as records plus labels (true=malicious),
// skipping apps whose summary crawl failed (they cannot be classified).
func LabeledSample(d *Datasets) ([]AppRecord, []bool) {
	var records []AppRecord
	var labels []bool
	add := func(ids []string, malicious bool) {
		for _, r := range Records(d, ids) {
			if r.Crawl == nil || r.Crawl.SummaryErr != nil {
				continue
			}
			records = append(records, r)
			labels = append(labels, malicious)
		}
	}
	add(d.Benign, false)
	add(d.Malicious, true)
	return records, labels
}

// CompleteSample returns the D-Complete subset as records plus labels.
func CompleteSample(d *Datasets) ([]AppRecord, []bool) {
	ben, mal := d.DComplete()
	records := append(Records(d, ben), Records(d, mal)...)
	labels := make([]bool, len(records))
	for i := len(ben); i < len(records); i++ {
		labels[i] = true
	}
	return records, labels
}

// LiteFeatures is FRAppE Lite's on-demand feature set (Table 4).
func LiteFeatures() []Feature { return core.LiteFeatures() }

// FullFeatures is full FRAppE's feature set (Table 4 + Table 7).
func FullFeatures() []Feature { return core.FullFeatures() }

// RobustFeatures is the obfuscation-resistant subset of §7.
func RobustFeatures() []Feature { return core.RobustFeatures() }

// Train fits a FRAppE classifier on labelled records (true = malicious).
func Train(records []AppRecord, labels []bool, opts Options) (*Classifier, error) {
	return core.Train(records, labels, opts)
}

// CrossValidate runs stratified k-fold cross-validation (the paper uses
// k = 5).
func CrossValidate(records []AppRecord, labels []bool, k int, opts Options) (Metrics, error) {
	return core.CrossValidate(records, labels, k, opts)
}

// Evaluate classifies labelled records through the vectorised batch path
// and tallies the confusion matrix — the shadow-evaluation primitive the
// retraining promotion gate is built on.
func Evaluate(c *Classifier, records []AppRecord, labels []bool) (Metrics, error) {
	return core.Evaluate(c, records, labels)
}

// SampleRatio draws a benign:malicious = ratio:1 subsample (Table 5).
func SampleRatio(records []AppRecord, labels []bool, ratio int, seed int64) ([]AppRecord, []bool, error) {
	return core.SampleRatio(records, labels, ratio, seed)
}

// CollaborationGraph is the §6 promotion graph over app IDs.
type CollaborationGraph = forensics.GraphSummary

// BuildCollaborationGraph reconstructs the AppNet collaboration structure
// from the links the candidate apps posted and summarises it (§6.1).
func BuildCollaborationGraph(w *World, candidates []string) CollaborationGraph {
	g, promos := forensics.BuildGraph(candidates, w.Monitor.Apps(), forensics.NewWorldResolver(w))
	return forensics.Summarize(g, promos)
}

// PiggybackFinding is a suspected victim of app piggybacking (§6.2).
type PiggybackFinding = forensics.PiggybackFinding

// DetectPiggybacking lists flagged apps whose malicious-post ratio is
// suspiciously low (< maxRatio), sorted by posting volume (Table 9).
func DetectPiggybacking(w *World, maxRatio float64) []PiggybackFinding {
	names := make(map[string]string)
	stats := w.Monitor.Apps()
	for id := range stats {
		if app, err := w.Platform.App(id); err == nil {
			names[id] = app.Name
		}
	}
	return forensics.DetectPiggybacking(stats, names, maxRatio)
}
