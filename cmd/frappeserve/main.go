// Command frappeserve generates a synthetic world, exposes its services
// (Graph API, bit.ly, WOT, Social Bakers, indirection redirector) as
// loopback HTTP servers, trains a FRAppE Lite classifier on the world's
// D-Sample, writes the model to disk, and then serves until interrupted.
//
// Together with cmd/frappe it forms the paper's envisioned deployment: a
// watchdog that evaluates any app ID on demand.
//
// Usage:
//
//	frappeserve [-scale 0.02] [-seed ...] [-model frappe-model.gob]
//	            [-registry DIR] [-wal-dir DIR]
//	            [-debug-addr 127.0.0.1:0] [-log-level info] [-log-json]
//	            [-fault-error-rate 0] [-fault-hang-rate 0]
//	            [-fault-latency 0] [-fault-seed 1]
//
// The fault flags inject deterministic, seeded failures into every served
// service (502s, hangs, latency) — the paper's hostile crawl environment
// on demand, for exercising client-side retries and circuit breakers.
//
// -wal-dir logs world generation's ingestion through a durable WAL in DIR,
// resuming from whatever log DIR already holds (a torn tail included): the
// events it has are applied but not logged again, so a restarted server
// never doubles the log, and with no log there it writes a fresh one.
//
// The debug listener serves /metrics (Prometheus text format),
// /debug/vars (expvar) and /debug/pprof; its resolved address is printed
// at startup. -debug-addr "" disables it.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"frappe"
	"frappe/internal/synth"
	"frappe/internal/telemetry"
)

func main() {
	scale := flag.Float64("scale", 0.02, "world scale")
	seed := flag.Int64("seed", 0, "world seed (0 = default)")
	modelPath := flag.String("model", "frappe-model.gob", "where to write the trained classifier")
	registryDir := flag.String("registry", "",
		"also publish the trained classifier to this model registry (empty = flat file only)")
	debugAddr := flag.String("debug-addr", "127.0.0.1:0",
		"debug listen address for /metrics, /debug/vars and /debug/pprof (empty = disabled)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	logJSON := flag.Bool("log-json", false, "log as JSON instead of text")
	faultErrorRate := flag.Float64("fault-error-rate", 0,
		"probability [0,1] a service request is answered with an injected 502")
	faultHangRate := flag.Float64("fault-hang-rate", 0,
		"probability [0,1] a service request hangs until the client gives up")
	faultLatency := flag.Duration("fault-latency", 0, "latency added to every service request")
	faultSeed := flag.Int64("fault-seed", 1, "seed for the fault-injection RNG")
	walDir := flag.String("wal-dir", "",
		"write a durable ingestion WAL under world generation to this directory, resuming from any log it holds (empty = no WAL)")
	flag.Parse()

	logger := telemetry.SetupProcessLogger(telemetry.LogConfig{
		Component: "frappeserve", Level: *logLevel, JSON: *logJSON,
	})

	cfg := synth.Default(*scale)
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.WALDir = *walDir
	logger.Info("generating world", "scale", *scale, "seed", cfg.Seed, "wal_dir", *walDir)
	w := frappe.GenerateWorld(cfg)
	if *walDir != "" {
		logger.Info("ingestion WAL complete", "already_logged", w.WALResumed)
	}

	d, err := frappe.BuildDatasets(context.Background(), w)
	if err != nil {
		logger.Error("building datasets", "err", err)
		os.Exit(1)
	}
	records, labels := frappe.LabeledSample(d)
	logger.Info("training classifier", "records", len(records))
	clf, err := frappe.Train(records, labels, frappe.Options{Features: frappe.LiteFeatures()})
	if err != nil {
		logger.Error("training", "err", err)
		os.Exit(1)
	}
	f, err := os.Create(*modelPath)
	if err != nil {
		logger.Error("creating model file", "path", *modelPath, "err", err)
		os.Exit(1)
	}
	if err := clf.Save(f); err != nil {
		logger.Error("writing model", "path", *modelPath, "err", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		logger.Error("closing model file", "path", *modelPath, "err", err)
		os.Exit(1)
	}
	if *registryDir != "" {
		reg, err := frappe.OpenModelRegistry(*registryDir)
		if err != nil {
			logger.Error("opening model registry", "dir", *registryDir, "err", err)
			os.Exit(1)
		}
		m, err := frappe.PublishClassifier(reg, clf, frappe.ModelManifest{
			TrainingFingerprint: frappe.TrainingFingerprint(records, labels),
			TrainedRecords:      len(records),
			Notes:               "initial frappeserve model",
		})
		if err != nil {
			logger.Error("publishing model", "dir", *registryDir, "err", err)
			os.Exit(1)
		}
		logger.Info("model published", "registry", *registryDir, "model", m.ModelID(),
			"feature_mode", m.FeatureMode)
	}

	var faults *frappe.FaultSpec
	if *faultErrorRate > 0 || *faultHangRate > 0 || *faultLatency > 0 {
		faults = &frappe.FaultSpec{
			Seed: *faultSeed,
			Default: frappe.ServiceFaults{
				ErrorRate: *faultErrorRate,
				HangRate:  *faultHangRate,
				Latency:   *faultLatency,
			},
		}
		logger.Info("fault injection enabled",
			"error_rate", *faultErrorRate, "hang_rate", *faultHangRate,
			"latency", *faultLatency, "fault_seed", *faultSeed)
	}
	st, err := frappe.StartServicesWithFaults(w, faults)
	if err != nil {
		logger.Error("starting services", "err", err)
		os.Exit(1)
	}
	defer st.Close()

	if *debugAddr != "" {
		ds, err := telemetry.StartDebugServer(*debugAddr, st.Telemetry)
		if err != nil {
			logger.Error("starting debug server", "addr", *debugAddr, "err", err)
			os.Exit(1)
		}
		defer ds.Close()
		fmt.Printf("debug/metrics: http://%s/metrics (pprof at /debug/pprof/)\n", ds.Addr)
		logger.Info("debug server listening", "addr", ds.Addr)
	}

	fmt.Printf("model written to %s\n", *modelPath)
	fmt.Printf("graph API:    %s\n", st.GraphURL)
	fmt.Printf("WOT:          %s\n", st.WOTURL)
	fmt.Printf("bit.ly:       %s\n", st.BitlyURL)
	fmt.Printf("social bakers:%s\n", st.SocialBakersURL)
	fmt.Printf("redirector:   %s\n", st.RedirectorURL)

	// Offer one live app of each class to try.
	var benign, malicious string
	for _, id := range w.BenignIDs {
		if _, err := w.Platform.Lookup(id); err == nil {
			benign = id
			break
		}
	}
	for _, id := range w.MaliciousIDs {
		if _, err := w.Platform.Lookup(id); err == nil {
			malicious = id
			break
		}
	}
	fmt.Printf("\ntry:\n  frappe -graph %s -wot %s -model %s %s %s\n",
		st.GraphURL, st.WOTURL, *modelPath, benign, malicious)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	<-ctx.Done()
	logger.Info("shutting down")
}
