package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"

	"frappe/internal/core"
	"frappe/internal/crawler"
	"frappe/internal/datasets"
	"frappe/internal/graphapi"
	"frappe/internal/lab"
	"frappe/internal/mypagekeeper"
	"frappe/internal/synth"
)

// PipelineOptions parameterise the experiment DAG.
type PipelineOptions struct {
	// Scale is the world scale; 0 means DefaultScale.
	Scale float64
	// Seed overrides the paper-calibrated world seed; 0 keeps it.
	Seed int64
	// Quick skips the classifier experiments, like frappelab -quick.
	Quick bool
	// Table5Ratios overrides Table 5's training ratios (nil = the paper's
	// 1, 4, 7, 10). The invalidation tests use it to change exactly one
	// evaluation stage's config.
	Table5Ratios []int
	// WALDir puts a durable write-ahead log under world generation's
	// ingestion stream (synth.Config.WALDir), resuming from any log the
	// directory already holds: the events it has are applied but not
	// logged again, so a repeated run never doubles the log, and with no
	// log there a fresh one is written. It never enters stage
	// fingerprints — the generated world is byte-identical either way.
	WALDir string
}

// Forced picks the stages a run must execute even when cached (the
// lab.Options.Force form): with WALDir set, generate, because only a
// running generate stage writes the log. Its artifact comes out
// byte-identical, so every other stage can still hit. Nil without WALDir.
func (o PipelineOptions) Forced() func(stage string) bool {
	if o.WALDir == "" {
		return nil
	}
	return func(stage string) bool { return stage == "generate" }
}

func (o PipelineOptions) synthConfig() synth.Config {
	scale := o.Scale
	if scale == 0 {
		scale = DefaultScale
	}
	cfg := synth.Default(scale)
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	cfg.WALDir = o.WALDir
	return cfg
}

// WorldSeed returns the seed the pipeline's world will be generated with.
func (o PipelineOptions) WorldSeed() int64 {
	return o.synthConfig().Seed
}

func (o PipelineOptions) ratios() []int {
	if len(o.Table5Ratios) > 0 {
		return o.Table5Ratios
	}
	return []int{1, 4, 7, 10}
}

// section is one rendered block of the evaluation report; Pipeline runs
// each as one stage and concatenates their artifacts into the report.
type section struct {
	// name is the DAG stage name.
	name string
	// inQuick marks sections that survive -quick (the measurement and
	// forensics studies; the classifier experiments don't).
	inQuick bool
	// render produces the section text, excluding the trailing blank line
	// the report inserts between sections.
	render func(ctx context.Context, r *Runner) (string, error)

	// Dependency surface: which pipeline values the renderer reads.
	world bool // the generated world
	data  bool // the crawled datasets
	train bool // the trained §5.3 full model (Table 8)
}

// sections returns the report sections opts selects, in print order.
func sections(opts PipelineOptions) []section {
	plain := func(f func(r *Runner) string) func(context.Context, *Runner) (string, error) {
		return func(_ context.Context, r *Runner) (string, error) { return f(r), nil }
	}
	ratios := opts.ratios()
	all := []section{
		// Measurement study (§2-§4).
		{name: "table1", inQuick: true, data: true, render: plain(func(r *Runner) string { return r.Table1().Render() })},
		{name: "table2", inQuick: true, world: true, data: true, render: plain(func(r *Runner) string { return RenderTable2(r.Table2()) })},
		{name: "table3", inQuick: true, data: true, render: plain(func(r *Runner) string { return r.Table3().Render() })},
		{name: "table4", inQuick: true, render: plain(func(*Runner) string { return Table4() })},
		{name: "prevalence", inQuick: true, world: true, data: true, render: plain(func(r *Runner) string { return r.Prevalence().Render() })},
		{name: "fig3", inQuick: true, world: true, data: true, render: plain(func(r *Runner) string { return r.Fig3().Render() })},
		{name: "fig4", inQuick: true, world: true, data: true, render: plain(func(r *Runner) string {
			f := r.Fig4()
			return f.Median.Render() + f.Max.Render()
		})},
		{name: "fig5", inQuick: true, data: true, render: plain(func(r *Runner) string { return RenderFig5(r.Fig5()) })},
		{name: "fig6", inQuick: true, data: true, render: plain(func(r *Runner) string { return RenderFig6(r.Fig6()) })},
		{name: "fig7", inQuick: true, data: true, render: plain(func(r *Runner) string { return r.Fig7().Render() })},
		{name: "fig8", inQuick: true, data: true, render: plain(func(r *Runner) string { return r.Fig8().Render() })},
		{name: "fig9", inQuick: true, data: true, render: plain(func(r *Runner) string { return r.Fig9().Render() })},
		{name: "fig10", inQuick: true, world: true, data: true, render: plain(func(r *Runner) string { return RenderFig10(r.Fig10()) })},
		{name: "fig11", inQuick: true, world: true, data: true, render: plain(func(r *Runner) string { return r.Fig11().Render() })},
		{name: "fig12", inQuick: true, data: true, render: plain(func(r *Runner) string { return r.Fig12().Render() })},

		// Classification (§5).
		{name: "table5", data: true, render: func(_ context.Context, r *Runner) (string, error) {
			rows, err := r.Table5With(ratios)
			if err != nil {
				return "", err
			}
			return RenderTable5(rows), nil
		}},
		{name: "table6", data: true, render: func(_ context.Context, r *Runner) (string, error) {
			rows, err := r.Table6()
			if err != nil {
				return "", err
			}
			return RenderTable6(rows), nil
		}},
		{name: "frappe", data: true, render: func(_ context.Context, r *Runner) (string, error) {
			head, err := r.FRAppE()
			if err != nil {
				return "", err
			}
			return head.Render(), nil
		}},
		{name: "table8", world: true, data: true, train: true, render: func(ctx context.Context, r *Runner) (string, error) {
			res, err := r.Table8With(ctx, r.full)
			if err != nil {
				return "", err
			}
			return res.Render(), nil
		}},
		{name: "robust", data: true, render: func(_ context.Context, r *Runner) (string, error) {
			res, err := r.Robust()
			if err != nil {
				return "", err
			}
			return res.Render(), nil
		}},
		{name: "kernels", data: true, render: func(_ context.Context, r *Runner) (string, error) {
			rows, err := r.AblationKernels()
			if err != nil {
				return "", err
			}
			return RenderKernels(rows), nil
		}},
		{name: "noise", data: true, render: func(_ context.Context, r *Runner) (string, error) {
			rows, err := r.AblationLabelNoise()
			if err != nil {
				return "", err
			}
			return RenderNoise(rows), nil
		}},
		{name: "grid", data: true, render: func(_ context.Context, r *Runner) (string, error) {
			res, err := r.AblationGridSearch()
			if err != nil {
				return "", err
			}
			return res.Render(), nil
		}},
		{name: "learnedmpk", render: func(_ context.Context, r *Runner) (string, error) {
			res, err := r.AblationLearnedMPK()
			if err != nil {
				return "", err
			}
			return res.Render(), nil
		}},
		{name: "countermeasures", render: plain(func(r *Runner) string { return r.Countermeasures().Render() })},

		// Ecosystem forensics (§6).
		{name: "fig1", inQuick: true, world: true, data: true, render: plain(func(r *Runner) string { return r.Fig1().Render() })},
		{name: "indirection", inQuick: true, world: true, render: plain(func(r *Runner) string { return r.Indirection().Render() })},
		{name: "fig14", inQuick: true, world: true, data: true, render: plain(func(r *Runner) string { return r.Fig14().Render() })},
		{name: "fig15", inQuick: true, world: true, data: true, render: plain(func(r *Runner) string { return r.Fig15().Render() })},
		{name: "fig16", inQuick: true, data: true, render: plain(func(r *Runner) string { return r.Fig16().Render() })},
		{name: "table9", inQuick: true, world: true, data: true, render: plain(func(r *Runner) string { return RenderTable9(r.Table9()) })},
	}
	if !opts.Quick {
		return all
	}
	var quick []section
	for _, s := range all {
		if s.inQuick {
			quick = append(quick, s)
		}
	}
	return quick
}

// labSeed is the world seed the pipeline runs at (the fingerprint surface
// of the seed-dependent stages).
type labSeed struct {
	Seed int64
}

// Pipeline assembles the experiment DAG:
//
//	generate → ingest → datasets → crawl → train → {sections} → report
//
// Measurement and forensics sections hang off crawl (plus generate for the
// ones reading the world directly); table8 additionally consumes the
// trained model; table4, learnedmpk and countermeasures are independent
// roots. The report stage concatenates every section artifact in print
// order, so a fully cached run rebuilds the report without computing
// anything.
func Pipeline(opts PipelineOptions) []lab.Stage {
	cfg := opts.synthConfig()
	// Worker counts and WAL placement never enter fingerprints: the
	// generated world is byte-identical at any ingestion width, with or
	// without durability underneath.
	fpCfg := cfg
	fpCfg.IngestWorkers = 0
	fpCfg.WALDir = ""
	seed := cfg.Seed

	stages := []lab.Stage{
		{
			Name:   "generate",
			Config: fpCfg,
			Run: func(c *lab.StageContext) ([]byte, error) {
				w := synth.Generate(cfg)
				c.SetValue(w)
				return worldArtifact(fpCfg, w)
			},
			// No Open: a world is rebuilt only by re-running Generate.
		},
		{
			Name:   "ingest",
			Deps:   []string{"generate"},
			Config: labSeed{seed},
			Run: func(c *lab.StageContext) ([]byte, error) {
				v, err := c.Value("generate")
				if err != nil {
					return nil, err
				}
				stats := v.(*synth.World).Monitor.Apps()
				c.SetValue(stats)
				return encodeStats(stats)
			},
			Open: func(data []byte) (any, error) { return decodeStats(data) },
		},
		{
			Name:   "datasets",
			Deps:   []string{"ingest", "generate"},
			Config: labSeed{seed},
			Run: func(c *lab.StageContext) ([]byte, error) {
				v, err := c.Value("generate")
				if err != nil {
					return nil, err
				}
				b := &datasets.Builder{World: v.(*synth.World)}
				sel, err := b.Select(c.Context())
				if err != nil {
					return nil, err
				}
				c.SetValue(sel)
				return encodeSelection(sel)
			},
			Open: func(data []byte) (any, error) { return decodeSelection(data) },
		},
		{
			Name:   "crawl",
			Deps:   []string{"datasets", "generate"},
			Config: labSeed{seed},
			Run: func(c *lab.StageContext) ([]byte, error) {
				wv, err := c.Value("generate")
				if err != nil {
					return nil, err
				}
				sv, err := c.Value("datasets")
				if err != nil {
					return nil, err
				}
				b := &datasets.Builder{World: wv.(*synth.World)}
				d, err := b.CrawlSample(c.Context(), sv.(*datasets.Selection))
				if err != nil {
					return nil, err
				}
				c.SetValue(d)
				return encodeDatasets(d)
			},
			Open: func(data []byte) (any, error) { return decodeDatasets(data) },
		},
	}

	if !opts.Quick {
		stages = append(stages, lab.Stage{
			Name:   "train",
			Deps:   []string{"crawl"},
			Config: labSeed{seed},
			Run: func(c *lab.StageContext) ([]byte, error) {
				v, err := c.Value("crawl")
				if err != nil {
					return nil, err
				}
				r := &Runner{Data: v.(*datasets.Datasets), Seed: seed}
				clf, err := r.TrainFull()
				if err != nil {
					return nil, err
				}
				c.SetValue(clf)
				var buf bytes.Buffer
				if err := clf.Save(&buf); err != nil {
					return nil, err
				}
				return buf.Bytes(), nil
			},
			Open: func(data []byte) (any, error) { return core.Load(bytes.NewReader(data)) },
		})
	}

	secs := sections(opts)
	reportDeps := make([]string, 0, len(secs))
	for _, sec := range secs {
		config := any(labSeed{seed})
		if sec.name == "table5" {
			config = struct {
				Seed   int64
				Ratios []int
			}{seed, opts.ratios()}
		}
		stages = append(stages, sectionStage(sec, seed, config))
		reportDeps = append(reportDeps, sec.name)
	}

	stages = append(stages, lab.Stage{
		Name: "report",
		Deps: reportDeps,
		Config: struct {
			Sections []string
		}{reportDeps},
		Run: func(c *lab.StageContext) ([]byte, error) {
			var b bytes.Buffer
			for _, name := range reportDeps {
				art, err := c.Artifact(name)
				if err != nil {
					return nil, err
				}
				b.Write(art)
				b.WriteByte('\n')
			}
			return b.Bytes(), nil
		},
		Open: func(data []byte) (any, error) { return string(data), nil },
	})
	return stages
}

// sectionStage runs one section as a stage: it hands the renderer a
// Runner carrying exactly the pipeline values the section declares.
func sectionStage(sec section, seed int64, config any) lab.Stage {
	var deps []string
	if sec.data {
		deps = append(deps, "crawl")
	}
	if sec.world {
		deps = append(deps, "generate")
	}
	if sec.train {
		deps = append(deps, "train")
	}
	return lab.Stage{
		Name:   sec.name,
		Deps:   deps,
		Config: config,
		Run: func(c *lab.StageContext) ([]byte, error) {
			r := &Runner{Seed: seed}
			if sec.world {
				v, err := c.Value("generate")
				if err != nil {
					return nil, err
				}
				r.World = v.(*synth.World)
			}
			if sec.data {
				v, err := c.Value("crawl")
				if err != nil {
					return nil, err
				}
				r.Data = v.(*datasets.Datasets)
			}
			if sec.train {
				v, err := c.Value("train")
				if err != nil {
					return nil, err
				}
				r.full = v.(*core.Classifier)
			}
			out, err := sec.render(c.Context(), r)
			if err != nil {
				return nil, err
			}
			return []byte(out), nil
		},
		Open: func(data []byte) (any, error) { return string(data), nil },
	}
}

// Fig1DOTStage renders Fig. 1's snapshot component as Graphviz DOT
// (Runner.WriteFig1DOT) as a stage artifact. It is not one of Pipeline's
// stages: a caller that wants the drawing appends it to Pipeline(opts).
func Fig1DOTStage(opts PipelineOptions) lab.Stage {
	seed := opts.WorldSeed()
	return sectionStage(section{name: "fig1dot", world: true, data: true,
		render: func(_ context.Context, r *Runner) (string, error) {
			var b strings.Builder
			err := r.WriteFig1DOT(&b)
			return b.String(), err
		}}, seed, labSeed{seed})
}

// ---- artifact encodings ----
//
// Artifacts must be deterministic byte-for-byte: fingerprints hash them, so
// a nondeterministic encoding would never cache-hit. Gob encodes structs
// and slices deterministically but randomises map order, so every map
// crosses the boundary as a sorted entry slice. Crawl errors are sentinel
// values (deleted, not-crawlable), encoded as tags and decoded back to the
// canonical errors.

// worldArtifact summarises a generated world. It embeds the config digest:
// the world is the root of the DAG, and any config or seed change must
// invalidate every world-reading stage even when the summary counts happen
// to agree.
func worldArtifact(fpCfg synth.Config, w *synth.World) ([]byte, error) {
	cfgJSON, err := json.Marshal(fpCfg)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(cfgJSON)
	return json.Marshal(struct {
		ConfigSHA256 string `json:"config_sha256"`
		Apps         int    `json:"apps"`
		Users        int    `json:"users"`
		Posts        int64  `json:"posts"`
	}{hex.EncodeToString(sum[:]), w.Platform.NumApps(), w.Platform.Users(), w.TotalStreamPosts})
}

type statsEntry struct {
	ID    string
	Stats mypagekeeper.AppStats
}

func sortedStats(stats map[string]mypagekeeper.AppStats) []statsEntry {
	entries := make([]statsEntry, 0, len(stats))
	for id, s := range stats {
		entries = append(entries, statsEntry{ID: id, Stats: s})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].ID < entries[j].ID })
	return entries
}

func statsMap(entries []statsEntry) map[string]mypagekeeper.AppStats {
	m := make(map[string]mypagekeeper.AppStats, len(entries))
	for _, e := range entries {
		m[e.ID] = e.Stats
	}
	return m
}

func encodeStats(stats map[string]mypagekeeper.AppStats) ([]byte, error) {
	return encodeGob(sortedStats(stats))
}

func decodeStats(data []byte) (map[string]mypagekeeper.AppStats, error) {
	var entries []statsEntry
	if err := decodeGob(data, &entries); err != nil {
		return nil, err
	}
	return statsMap(entries), nil
}

type selectionWire struct {
	DTotal      []string
	Flagged     []string
	Whitelisted []string
	Malicious   []string
	Benign      []string
	Stats       []statsEntry
}

func encodeSelection(sel *datasets.Selection) ([]byte, error) {
	return encodeGob(selectionWire{
		DTotal:      sel.DTotal,
		Flagged:     sel.Flagged,
		Whitelisted: sel.Whitelisted,
		Malicious:   sel.Malicious,
		Benign:      sel.Benign,
		Stats:       sortedStats(sel.Stats),
	})
}

func decodeSelection(data []byte) (*datasets.Selection, error) {
	var w selectionWire
	if err := decodeGob(data, &w); err != nil {
		return nil, err
	}
	return &datasets.Selection{
		DTotal:      w.DTotal,
		Flagged:     w.Flagged,
		Whitelisted: w.Whitelisted,
		Malicious:   w.Malicious,
		Benign:      w.Benign,
		Stats:       statsMap(w.Stats),
	}, nil
}

type crawlResultWire struct {
	Summary    *graphapi.Summary
	SummaryErr string
	Feed       []graphapi.FeedPost
	FeedErr    string
	Install    graphapi.InstallInfo
	InstallErr string
	WOTScore   int
}

type crawlEntry struct {
	ID     string
	Result crawlResultWire
}

type datasetsWire struct {
	Selection selectionWire
	Crawl     []crawlEntry
}

const (
	errTagDeleted      = "!deleted"
	errTagNotCrawlable = "!not_crawlable"
	errTagOther        = "!other:"
)

func encodeCrawlErr(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, graphapi.ErrDeleted):
		return errTagDeleted
	case errors.Is(err, crawler.ErrNotCrawlable):
		return errTagNotCrawlable
	default:
		return errTagOther + err.Error()
	}
}

func decodeCrawlErr(tag string) error {
	switch {
	case tag == "":
		return nil
	case tag == errTagDeleted:
		return graphapi.ErrDeleted
	case tag == errTagNotCrawlable:
		return crawler.ErrNotCrawlable
	default:
		return errors.New(strings.TrimPrefix(tag, errTagOther))
	}
}

func encodeDatasets(d *datasets.Datasets) ([]byte, error) {
	wire := datasetsWire{
		Selection: selectionWire{
			DTotal:      d.DTotal,
			Flagged:     d.Flagged,
			Whitelisted: d.Whitelisted,
			Malicious:   d.Malicious,
			Benign:      d.Benign,
			Stats:       sortedStats(d.Stats),
		},
	}
	ids := make([]string, 0, len(d.Crawl))
	for id := range d.Crawl {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		r := d.Crawl[id]
		wire.Crawl = append(wire.Crawl, crawlEntry{ID: id, Result: crawlResultWire{
			Summary:    r.Summary,
			SummaryErr: encodeCrawlErr(r.SummaryErr),
			Feed:       r.Feed,
			FeedErr:    encodeCrawlErr(r.FeedErr),
			Install:    r.Install,
			InstallErr: encodeCrawlErr(r.InstallErr),
			WOTScore:   r.WOTScore,
		}})
	}
	return encodeGob(wire)
}

func decodeDatasets(data []byte) (*datasets.Datasets, error) {
	var wire datasetsWire
	if err := decodeGob(data, &wire); err != nil {
		return nil, err
	}
	d := &datasets.Datasets{
		DTotal:      wire.Selection.DTotal,
		Flagged:     wire.Selection.Flagged,
		Whitelisted: wire.Selection.Whitelisted,
		Malicious:   wire.Selection.Malicious,
		Benign:      wire.Selection.Benign,
		Stats:       statsMap(wire.Selection.Stats),
		Crawl:       make(map[string]*crawler.Result, len(wire.Crawl)),
	}
	for _, e := range wire.Crawl {
		d.Crawl[e.ID] = &crawler.Result{
			AppID:      e.ID,
			Summary:    e.Result.Summary,
			SummaryErr: decodeCrawlErr(e.Result.SummaryErr),
			Feed:       e.Result.Feed,
			FeedErr:    decodeCrawlErr(e.Result.FeedErr),
			Install:    e.Result.Install,
			InstallErr: decodeCrawlErr(e.Result.InstallErr),
			WOTScore:   e.Result.WOTScore,
		}
	}
	return d, nil
}

func encodeGob(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("experiments: encoding artifact: %w", err)
	}
	return buf.Bytes(), nil
}

func decodeGob(data []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
		return fmt.Errorf("experiments: decoding artifact: %w", err)
	}
	return nil
}
