// Command frappelab regenerates the paper's tables and figures through the
// internal/lab DAG engine: dependency-ordered stages (generate → ingest →
// datasets → crawl → train → evaluations → report) with content-addressed
// artifact caching, parallel independent branches, and resumable runs.
//
// Usage:
//
//	frappelab [-scale 0.15] [-seed 20121210] [-quick] [-store .frappelab]
//	          [-workers N] [-out FILE] [-force] [-expect-all-hits] [-list]
//	          [-dot FILE] [-wal-dir DIR]
//
// A first run computes everything and persists each stage's artifact under
// -store; a second run with unchanged inputs is pure cache hits and prints
// the identical report in a fraction of the time. Changing the seed, the
// scale, or one stage's config re-runs exactly the affected downstream
// cone. An interrupted run (crash, ctrl-C) resumes from its completed
// stages. The report's sha256 for two configurations is pinned by the
// internal/experiments tests.
//
// -expect-all-hits exits non-zero if any stage missed the cache; CI uses
// it to assert that a repeated run is fully cached. -force re-runs every
// stage while still refreshing the store.
//
// -dot adds a stage that draws the Fig. 1 snapshot component as Graphviz
// DOT and writes it to FILE. -wal-dir logs world generation's ingestion
// through a durable WAL in DIR, resuming from whatever log DIR already
// holds (a torn tail included): the events it has are applied but not
// logged again, so a repeated run never doubles the log, and with no log
// there the run writes a fresh one. Only a running generate stage writes
// the log, so a -wal-dir run forces generate; its artifact comes out
// byte-identical, so a warm store still serves every other stage.
//
// Performance is measured by the repository's benchmark, perfbench/
// (bash perfbench/run.sh; see perfbench/README.md), not by this command.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
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
	storeDir := flag.String("store", ".frappelab", "artifact store directory")
	workers := flag.Int("workers", 0, "max concurrent stages (0 = GOMAXPROCS); results are identical for any value")
	outPath := flag.String("out", "", "write the report to this file instead of stdout")
	force := flag.Bool("force", false, "ignore cached artifacts (still refreshes the store)")
	expectAllHits := flag.Bool("expect-all-hits", false, "exit non-zero if any stage missed the cache")
	list := flag.Bool("list", false, "print the stage DAG and exit")
	dotPath := flag.String("dot", "", "also write the Fig. 1 snapshot component as Graphviz DOT to this file")
	walDir := flag.String("wal-dir", "",
		"write a durable ingestion WAL under world generation to this directory, resuming from any log it holds (forces the generate stage)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	logJSON := flag.Bool("log-json", false, "log as JSON instead of text")
	flag.Parse()

	logger := telemetry.SetupProcessLogger(telemetry.LogConfig{
		Component: "frappelab", Level: *logLevel, JSON: *logJSON,
	})
	opts := experiments.PipelineOptions{Scale: *scale, Seed: *seed, Quick: *quick, WALDir: *walDir}
	stages := experiments.Pipeline(opts)
	dot := experiments.Fig1DOTStage(opts)
	if *dotPath != "" {
		stages = append(stages, dot)
	}

	if *list {
		for _, s := range stages {
			deps := ""
			if len(s.Deps) > 0 {
				deps = " <- " + strings.Join(s.Deps, ", ")
			}
			fmt.Printf("%s%s\n", s.Name, deps)
		}
		return
	}

	store, err := lab.OpenStore(*storeDir)
	if err != nil {
		logger.Error("opening store", "err", err)
		os.Exit(1)
	}

	// Ctrl-C cancels the run; completed stages have already persisted
	// their artifacts, so the next invocation resumes from them.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	forced := opts.Forced()
	if *force {
		forced = lab.ForceAll
	}
	res, err := lab.Run(ctx, stages, lab.Options{
		Store:   store,
		Workers: *workers,
		Logger:  logger,
		Force:   forced,
	})
	if err != nil {
		logger.Error("lab run failed", "err", err,
			"hits", res.Hits, "misses", res.Misses)
		fmt.Fprintln(os.Stderr, "completed stages are cached; re-run to resume")
		os.Exit(1)
	}

	report, ok := res.Artifact("report")
	if !ok {
		logger.Error("run produced no report artifact")
		os.Exit(1)
	}
	if *outPath != "" {
		if err := os.WriteFile(*outPath, report, 0o644); err != nil {
			logger.Error("writing report", "err", err)
			os.Exit(1)
		}
	} else {
		os.Stdout.Write(report)
	}
	if *dotPath != "" {
		art, _ := res.Artifact(dot.Name)
		if err := os.WriteFile(*dotPath, art, 0o644); err != nil {
			logger.Error("writing DOT", "err", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "fig 1 snapshot written to %s (render with: dot -Tpng %s)\n", *dotPath, *dotPath)
	}

	fmt.Fprintf(os.Stderr, "lab: %d stages — %d hits, %d misses, %d opened, %d materialized in %v (store %s)\n",
		len(res.Stages), res.Hits, res.Misses, res.Opens, res.Materializations,
		res.Elapsed.Round(time.Millisecond), *storeDir)
	if *expectAllHits && res.Misses > 0 {
		for name, rep := range res.Stages {
			if rep.Status != lab.StatusHit {
				fmt.Fprintf(os.Stderr, "  stage %s: %s\n", name, rep.Status)
			}
		}
		fmt.Fprintf(os.Stderr, "expected all cache hits, got %d misses\n", res.Misses)
		os.Exit(2)
	}
}
