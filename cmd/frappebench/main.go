// Command frappebench regenerates every table and figure of the paper's
// evaluation section from a synthetic world and prints them in the paper's
// shape, with the original headline numbers cited inline for comparison.
//
// Usage:
//
//	frappebench [-scale 0.15] [-seed 20121210] [-quick] [-workers N]
//	            [-no-cache] [-dot FILE] [-lab-store DIR] [-report FILE]
//	            [-wal-dir DIR] [-wal-replay]
//
// -quick skips the classifier cross-validation experiments (the slowest
// part) and prints only the measurement and forensics results.
//
// The experiment suite runs on the internal/lab DAG engine by default:
// stages execute dependency-ordered with independent branches in parallel,
// and artifacts are cached content-addressed under -lab-store (a fresh
// temp directory per run unless set, so caching across invocations is
// opt-in). -no-cache runs the original monolithic sequential path instead;
// both paths render the same sections through the same code, so their
// reports are byte-identical. -report tees the rendered tables/figures to
// a file for exactly that comparison.
//
// -wal-dir logs world generation's ingestion through a durable WAL in that
// directory; -wal-replay resumes from an existing log there.
//
// Performance is measured by the repository's benchmark, perfbench/
// (bash perfbench/run.sh; see perfbench/README.md), not by this command.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"strings"
	"time"

	"frappe/internal/experiments"
	"frappe/internal/lab"
	"frappe/internal/telemetry"
)

func main() {
	scale := flag.Float64("scale", experiments.DefaultScale,
		"world scale (1.0 = the paper's 111K-app corpus)")
	seed := flag.Int64("seed", 0, "world seed (0 = paper-calibrated default)")
	quick := flag.Bool("quick", false, "skip the classifier experiments")
	workersFlag := flag.Int("workers", 0, "cap worker parallelism via GOMAXPROCS (0 = all cores); results are identical for any value")
	dotPath := flag.String("dot", "", "write the Fig. 1 snapshot component as Graphviz DOT to this file (implies -no-cache)")
	noCache := flag.Bool("no-cache", false, "run the monolithic sequential path instead of the DAG engine")
	labStore := flag.String("lab-store", "", "artifact store directory for the DAG engine (default: fresh temp dir, removed at exit)")
	reportPath := flag.String("report", "", "also write the rendered tables/figures to this file")
	walDir := flag.String("wal-dir", "",
		"write a durable ingestion WAL under world generation to this directory")
	walReplay := flag.Bool("wal-replay", false,
		"resume from an existing WAL in -wal-dir: replay it into the monitor and regenerate only past the replayed prefix")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	logJSONFlag := flag.Bool("log-json", false, "log as JSON instead of text")
	flag.Parse()

	logger := telemetry.SetupProcessLogger(telemetry.LogConfig{
		Component: "frappebench", Level: *logLevel, JSON: *logJSONFlag,
	})
	if *workersFlag > 0 {
		runtime.GOMAXPROCS(*workersFlag)
	}

	if *walReplay && *walDir == "" {
		fmt.Fprintln(os.Stderr, "-wal-replay requires -wal-dir")
		os.Exit(1)
	}

	ctx := context.Background()
	opts := experiments.PipelineOptions{Scale: *scale, Seed: *seed, Quick: *quick,
		WALDir: *walDir, WALResume: *walReplay}
	if *dotPath != "" && !*noCache {
		fmt.Fprintln(os.Stderr, "-dot needs the live world; running the monolithic -no-cache path")
		*noCache = true
	}

	start := time.Now()
	var report string
	if *noCache {
		report = runMonolithic(ctx, logger, opts, *dotPath)
	} else {
		report = runEngine(ctx, logger, opts, *labStore)
	}
	total := time.Since(start)

	if *reportPath != "" {
		if err := os.WriteFile(*reportPath, []byte(report), 0o644); err != nil {
			fatal(logger, err)
		}
		fmt.Fprintf(os.Stderr, "report written to %s\n", *reportPath)
	}
	fmt.Fprintf(os.Stderr, "total runtime: %v\n", total.Round(time.Millisecond))
}

// runMonolithic is the original sequential path: build the world and the
// datasets, then render every section in order. Kept as the parity
// baseline for the DAG engine and for -dot, which needs the live world.
func runMonolithic(ctx context.Context, logger *slog.Logger, opts experiments.PipelineOptions, dotPath string) string {
	start := time.Now()
	scale := opts.Scale
	if scale == 0 {
		scale = experiments.DefaultScale
	}
	fmt.Printf("Generating synthetic world at scale %.2f ...\n", scale)
	r, err := experiments.NewFromOptions(ctx, opts)
	if err != nil {
		fatal(logger, err)
	}
	fmt.Printf("World ready in %v: %d apps, %d monitored users, %d posts streamed.\n\n",
		time.Since(start).Round(time.Millisecond),
		r.World.Platform.NumApps(), r.World.Platform.Users(), r.World.TotalStreamPosts)

	var report strings.Builder
	for _, sec := range experiments.Sections(opts) {
		if opts.Quick && !sec.InQuick {
			continue
		}
		out, err := sec.Render(ctx, r)
		if err != nil {
			fatal(logger, fmt.Errorf("section %s: %w", sec.Name, err))
		}
		fmt.Println(out)
		report.WriteString(out)
		report.WriteByte('\n')
		if sec.Name == "fig1" && dotPath != "" {
			writeDOT(logger, r, dotPath)
		}
	}
	return report.String()
}

// runEngine runs the experiment DAG on the lab engine.
func runEngine(ctx context.Context, logger *slog.Logger, opts experiments.PipelineOptions, storeDir string) string {
	if storeDir == "" {
		tmp, err := os.MkdirTemp("", "frappelab-*")
		if err != nil {
			fatal(logger, err)
		}
		defer os.RemoveAll(tmp)
		storeDir = tmp
	}
	store, err := lab.OpenStore(storeDir)
	if err != nil {
		fatal(logger, err)
	}
	res, err := lab.Run(ctx, experiments.Pipeline(opts), lab.Options{Store: store, Logger: logger})
	if err != nil {
		fatal(logger, err)
	}
	report, ok := res.Artifact("report")
	if !ok {
		fatal(logger, fmt.Errorf("engine run produced no report artifact"))
	}
	os.Stdout.Write(report)
	fmt.Fprintf(os.Stderr, "lab: %d stages — %d hits, %d misses in %v (store %s)\n",
		len(res.Stages), res.Hits, res.Misses, res.Elapsed.Round(time.Millisecond), storeDir)
	return string(report)
}

func writeDOT(logger *slog.Logger, r *experiments.Runner, dotPath string) {
	f, err := os.Create(dotPath)
	if err != nil {
		fatal(logger, err)
	}
	if err := r.WriteFig1DOT(f); err != nil {
		fatal(logger, err)
	}
	if err := f.Close(); err != nil {
		fatal(logger, err)
	}
	fmt.Printf("Fig 1 snapshot written to %s (render with: dot -Tpng %s)\n\n", dotPath, dotPath)
}

func fatal(logger *slog.Logger, err error) {
	logger.Error("frappebench failed", "err", err)
	os.Exit(1)
}
