package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"frappe/internal/experiments"
	"frappe/internal/lab"
	"frappe/internal/mypagekeeper"
	"frappe/internal/synth"
	"frappe/internal/wal"
)

// The offline side — durable WAL ingestion, replay and the experiment
// report — measured layer by layer in check_miss's traced run. It
// generates the paper-seeded world with an ingestion WAL recording its
// event stream and decodes the stream; then the stream is re-ingested
// durably into a fresh monitor and log, the new log is replayed into a
// second monitor, and the experiment DAG runs cold to a rendered report
// and re-runs over the same lab store, every stage a hit. Every step's
// output is checked.
const (
	offlineScale = 0.05
	// batchEvents is the durable batch: the ingester's Flush barrier (apply
	// everything queued, fsync the log) closes each one.
	batchEvents = 8192
	// ingestWorkers is the sharded-apply width (the host has 2 CPUs).
	ingestWorkers = 2
	// cachedRuns is how many times the DAG re-runs over its store.
	cachedRuns = 5
)

// newMonitor builds a monitor the way the generator builds its own: every
// world user subscribed, short links resolved through the world's bit.ly.
func newMonitor(w *synth.World) *mypagekeeper.Monitor {
	m := mypagekeeper.New(mypagekeeper.DefaultClassifierConfig())
	m.SubscribeRange(0, w.Config.NumUsers())
	m.SetResolver(func(link string) (string, bool) {
		if !w.Bitly.IsShort(link) {
			return "", false
		}
		long, err := w.Bitly.Expand(link)
		if err != nil {
			return "", false
		}
		return long, true
	})
	return m
}

// feed hands one recorded event to the ingester.
func feed(ing *mypagekeeper.Ingester, ev mypagekeeper.WALEvent) {
	switch ev.Kind {
	case mypagekeeper.KindPost:
		ing.Observe(ev.Post)
	case mypagekeeper.KindBlacklistURL:
		ing.AddBlacklistedURL(ev.Value)
	case mypagekeeper.KindBlacklistDomain:
		ing.AddBlacklistedDomain(ev.Value)
	case mypagekeeper.KindInstall:
		ing.ObserveInstall(ev.AppID, ev.UserID)
	case mypagekeeper.KindRemoval:
		ing.ObserveRemoval(ev.AppID, ev.UserID)
	}
}

// apply applies one event to a monitor directly (serial, no queue).
func apply(m *mypagekeeper.Monitor, ev mypagekeeper.WALEvent) {
	switch ev.Kind {
	case mypagekeeper.KindPost:
		m.Observe(ev.Post)
	case mypagekeeper.KindBlacklistURL:
		m.AddBlacklistedURL(ev.Value)
	case mypagekeeper.KindBlacklistDomain:
		m.AddBlacklistedDomain(ev.Value)
	}
}

// readLog returns every record payload of l.
func readLog(l *wal.Log) ([][]byte, error) {
	r, err := l.Reader(0)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var out [][]byte
	for {
		p, _, err := r.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, append([]byte(nil), p...))
	}
}

func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// measureOffline runs the offline side once, checks its outputs into rep
// and adds its per-layer figures to values.
func measureOffline(cfg runConfig, tr *tracer, rep *report, values map[string]float64) error {
	srcDir := filepath.Join(cfg.scratch, "wal-src")
	wcfg := synth.Default(offlineScale)
	wcfg.WALDir = srcDir
	w := synth.Generate(wcfg)
	src, err := wal.Open(srcDir, wal.Options{})
	if err != nil {
		return fmt.Errorf("opening the recorded log: %w", err)
	}
	defer src.Close()
	payloads, err := readLog(src)
	if err != nil {
		return fmt.Errorf("reading the recorded log: %w", err)
	}
	events := make([]mypagekeeper.WALEvent, len(payloads))
	for i, p := range payloads {
		if events[i], err = mypagekeeper.DecodeEvent(p); err != nil {
			return fmt.Errorf("decoding record %d: %w", i, err)
		}
	}
	payloads = nil
	n := float64(len(events))
	want := viewOf(w.Monitor)

	// Durable re-ingestion into a fresh monitor and log, one Flush-closed
	// batch at a time, from the first event until Close returns.
	ingLog, err := wal.Open(filepath.Join(cfg.scratch, "wal-ingest"), wal.Options{})
	if err != nil {
		return err
	}
	defer ingLog.Close()
	ingested := newMonitor(w)
	runtime.GC()
	t0 := time.Now()
	ing := ingested.StartIngestWith(mypagekeeper.IngestConfig{Workers: ingestWorkers, WAL: ingLog})
	for lo := 0; lo < len(events); lo += batchEvents {
		for _, ev := range events[lo:min(lo+batchEvents, len(events))] {
			feed(ing, ev)
		}
		ing.Flush()
	}
	if err := ing.Close(); err != nil {
		return fmt.Errorf("closing the ingester: %w", err)
	}
	values["mypagekeeper.ingest_events_per_s"] = n / time.Since(t0).Seconds()
	if err := checkLogsEqual(src, ingLog); err != nil {
		rep.fail("re-ingested log: %v", err)
	}
	rep.problems = append(rep.problems, checkMonitor("ingested", want, ingested)...)

	// Replay of the new log into a second monitor.
	replayed := newMonitor(w)
	runtime.GC()
	t0 = time.Now()
	rs, err := mypagekeeper.Replay(replayed, ingLog, 0, nil)
	if err != nil {
		return fmt.Errorf("replaying: %w", err)
	}
	values["mypagekeeper.replay_events_per_s"] = n / time.Since(t0).Seconds()
	if rs.Records != uint64(len(events)) {
		rep.fail("replay applied %d records, %d were fed", rs.Records, len(events))
	}
	rep.problems = append(rep.problems, checkMonitor("replayed", want, replayed)...)

	// The experiment DAG, cold to a rendered report, then over the same
	// store again.
	store, err := lab.OpenStore(filepath.Join(cfg.scratch, "lab"))
	if err != nil {
		return err
	}
	stages := experiments.Pipeline(experiments.PipelineOptions{Scale: offlineScale})
	for i := range stages {
		run, name := stages[i].Run, stageMetric(stages[i].Name)
		stages[i].Run = func(c *lab.StageContext) (out []byte, err error) {
			tr.timed(name, func() { out, err = run(c) })
			return out, err
		}
	}
	opts := lab.Options{Store: store, Workers: runtime.GOMAXPROCS(0)}
	runtime.GC()
	t0 = time.Now()
	cold, err := lab.Run(context.Background(), stages, opts)
	if err != nil {
		return fmt.Errorf("cold DAG run: %w", err)
	}
	reportWall := time.Since(t0)
	coldReport, _ := cold.Artifact("report")
	var cached []float64
	for i := 0; i < cachedRuns; i++ {
		t0 := time.Now()
		res, err := lab.Run(context.Background(), stages, opts)
		if err != nil {
			return fmt.Errorf("cached DAG run: %w", err)
		}
		cached = append(cached, time.Since(t0).Seconds())
		if p := checkCachedRun(coldReport, res); len(p) > 0 {
			rep.problems = append(rep.problems, p...)
			break
		}
	}
	total, malicious := monitorCounts(w, replayed)
	rep.problems = append(rep.problems, checkTable1(string(coldReport), total, malicious)...)
	rep.note("offline: %d events; ingest %.0f events/s, replay %.0f events/s, report %.3f s, cached report %.3f s; Table 1 D-Total %d, malicious D-Sample %d from the replayed monitor",
		len(events), values["mypagekeeper.ingest_events_per_s"], values["mypagekeeper.replay_events_per_s"],
		reportWall.Seconds(), median(cached), total, malicious)

	stats, _ := tr.stats()
	stageSeconds := make(map[string]float64)
	var stageSum float64
	for _, s := range stages {
		sec := statOf(stats, stageMetric(s.Name)).total.Seconds()
		stageSeconds[s.Name] = sec
		values[stageMetric(s.Name)] = sec
		stageSum += sec
	}
	values["lab.report_s"] = reportWall.Seconds()
	values["lab.report_cached_s"] = median(cached)
	values["lab.store_bytes"] = float64(dirBytes(store.Root()))
	values["lab.stage_sum_s"] = stageSum
	values["lab.critical_path_s"] = criticalPath(stages, stageSeconds)
	values["lab.parallel_efficiency"] = stageSum / (reportWall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	return probeIngestLayers(cfg, w, events, values)
}

// criticalPath is the longest dependency chain through the DAG, weighted by
// each stage's measured run time.
func criticalPath(stages []lab.Stage, seconds map[string]float64) float64 {
	finish := make(map[string]float64, len(stages))
	var longest float64
	for _, s := range stages { // Pipeline lists every stage after its deps
		var ready float64
		for _, d := range s.Deps {
			ready = max(ready, finish[d])
		}
		finish[s.Name] = ready + seconds[s.Name]
		longest = max(longest, finish[s.Name])
	}
	return longest
}

// probeIngestLayers times direct calls into the ingestion layers over the
// recorded stream: WAL append, fsync and read, event decoding, serial
// Observe and queued ingestion without a WAL.
func probeIngestLayers(cfg runConfig, w *synth.World, events []mypagekeeper.WALEvent, values map[string]float64) error {
	n := float64(len(events))
	dir := filepath.Join(cfg.scratch, "wal-probe")
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return err
	}
	defer l.Close()
	var appendTime, syncTime time.Duration
	var syncs int
	batch := make([][]byte, 0, batchEvents)
	for lo := 0; lo < len(events); lo += batchEvents {
		batch = batch[:0]
		for _, ev := range events[lo:min(lo+batchEvents, len(events))] {
			p, err := mypagekeeper.AppendEvent(nil, ev)
			if err != nil {
				return err
			}
			batch = append(batch, p)
		}
		t0 := time.Now()
		for _, p := range batch {
			if _, err := l.Append(p); err != nil {
				return err
			}
		}
		t1 := time.Now()
		if err := l.Sync(); err != nil {
			return err
		}
		appendTime += t1.Sub(t0)
		syncTime += time.Since(t1)
		syncs++
	}
	values["wal.append_ns"] = float64(appendTime.Nanoseconds()) / n
	values["wal.sync_ms"] = ms(syncTime) / float64(syncs)
	values["wal.bytes_per_event"] = float64(dirBytes(dir)) / n

	t0 := time.Now()
	payloads, err := readLog(l)
	if err != nil {
		return err
	}
	values["wal.read_ns"] = float64(time.Since(t0).Nanoseconds()) / n
	t0 = time.Now()
	for _, p := range payloads {
		if _, err := mypagekeeper.DecodeEvent(p); err != nil {
			return err
		}
	}
	values["mypagekeeper.decode_ns"] = float64(time.Since(t0).Nanoseconds()) / n
	payloads = nil

	before := liveHeapMB()
	m := newMonitor(w)
	t0 = time.Now()
	for _, ev := range events {
		apply(m, ev)
	}
	values["mypagekeeper.observe_ns"] = float64(time.Since(t0).Nanoseconds()) / n
	values["mypagekeeper.monitor_mb"] = liveHeapMB() - before
	runtime.KeepAlive(m)

	q := newMonitor(w)
	t0 = time.Now()
	ing := q.StartIngestWith(mypagekeeper.IngestConfig{Workers: ingestWorkers})
	for _, ev := range events {
		feed(ing, ev)
	}
	if err := ing.Close(); err != nil {
		return err
	}
	values["mypagekeeper.ingest_nowal_ns"] = float64(time.Since(t0).Nanoseconds()) / n
	return os.RemoveAll(dir)
}
