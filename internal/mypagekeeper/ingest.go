package mypagekeeper

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"frappe/internal/fbplatform"
	"frappe/internal/telemetry"
	"frappe/internal/wal"
)

// ingestQueueDepth bounds each queue so a fast producer exerts backpressure
// instead of ballooning memory.
const ingestQueueDepth = 1024

// ingestItem is one queued unit of work: a post with its producer-stamped
// stream position, or (when flush is non-nil) a barrier token.
type ingestItem struct {
	post  fbplatform.Post
	seq   uint64
	flush *sync.WaitGroup
}

// IngestConfig configures a queued-ingestion session.
type IngestConfig struct {
	// Workers is the number of queue workers (0 or less means GOMAXPROCS).
	// Results are byte-identical for every value.
	Workers int
	// WAL, when non-nil, makes the session durable: every event (post,
	// blacklist add — re-adds included — install, removal) is appended to
	// the log BEFORE it is enqueued or applied, and barriers (Flush,
	// blacklist adds, Close) fsync it. The log is therefore always the
	// exact call stream in producer order, which is what replay and resume
	// lean on.
	WAL *wal.Log
	// Resume makes the session continue the stream the WAL already
	// holds: the producer regenerates its stream from the start, and the
	// log's existing records are that stream's first events. Each is
	// applied to the monitor in stream order but not appended again, and
	// is checked byte for byte against its logged record. The first
	// mismatch means the log holds another stream: it becomes the
	// session's error (Err, Close) and nothing more is appended. Only
	// meaningful when the producer regenerates the same stream
	// deterministically (the seeded generator does). The prefix is
	// applied in stream order rather than replayed up front because
	// classification may consult service state (the synth world's link
	// resolver) that only exists mid-regeneration.
	Resume bool
}

// Ingester fans a single-threaded post stream out across per-shard queues
// so the monitor's shards fill concurrently. Determinism is preserved by
// construction:
//
//   - every post carrying a URL is routed by hash(URL), so all posts for
//     one URL land on one queue in stream order — the per-URL prefix each
//     classification decision depends on is exactly the serial one;
//   - link-less posts only touch commutative per-app state (counters and
//     seq-keyed samples), so their routing (by app ID, else round-robin)
//     is load balancing, not ordering;
//   - blacklist updates flush every queue first (see AddBlacklistedURL),
//     so they are totally ordered against queued posts.
//
// Observe and Flush must be called from one producer goroutine at a time —
// the same discipline as the seeded generator that feeds it. The queue
// workers are the concurrency.
type Ingester struct {
	m *Monitor
	// queues is nil in the single-worker session: with no parallelism to
	// win, posts are observed synchronously — the same width-1 fast path
	// discipline as workerpool.Run.
	queues []chan ingestItem
	wg     sync.WaitGroup

	started time.Time
	closed  atomic.Bool

	wal      *wal.Log
	logged   *wal.Reader // the log's records still to match (IngestConfig.Resume)
	unseen   uint64      // how many records logged still holds
	walErr   error       // first WAL failure; surfaced by Err and Close
	encBuf   []byte      // event-encoding scratch, reused across appends
	closeErr error

	// The session's series, resolved once: Observe bumps posts (and, with
	// a WAL, walEvents) for every post.
	posts     *telemetry.Counter
	flushes   *telemetry.Counter
	barriers  *telemetry.Counter
	walErrs   *telemetry.Counter
	walEvents *telemetry.Counter
	seconds   *telemetry.Gauge
}

// StartIngest opens a queued-ingestion session with the given number of
// queue workers; see StartIngestWith for the full contract.
func (m *Monitor) StartIngest(workers int) *Ingester {
	return m.StartIngestWith(IngestConfig{Workers: workers})
}

// StartIngestWith opens a queued-ingestion session. Results are
// byte-identical for every worker count. Close drains the queues and ends
// the session; using the Ingester after Close panics with a descriptive
// message (it used to be a bare send-on-closed-channel panic).
//
// Metrics (process default registry):
//
//	frappe_monitor_shards                            stripe count
//	frappe_monitor_ingest_workers                    queue workers this session
//	frappe_monitor_ingest_posts_total                posts enqueued
//	frappe_monitor_ingest_flushes_total              full-queue barriers
//	frappe_monitor_ingest_blacklist_barriers_total   barriers forced by blacklist adds
//	frappe_monitor_ingest_wal_events_total           events appended to the WAL
//	frappe_monitor_ingest_wal_errors_total           failed WAL appends/syncs
//	frappe_monitor_ingest_session_seconds            wall clock of the last session
func (m *Monitor) StartIngestWith(cfg IngestConfig) *Ingester {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	reg := telemetry.Default()
	ing := &Ingester{
		m:       m,
		queues:  make([]chan ingestItem, workers),
		started: time.Now(),
		wal:     cfg.WAL,
		posts: reg.Counter("frappe_monitor_ingest_posts_total",
			"Posts enqueued through the monitor's ingestion queues.").With(),
		flushes: reg.Counter("frappe_monitor_ingest_flushes_total",
			"Full-queue flush barriers issued during ingestion.").With(),
		barriers: reg.Counter("frappe_monitor_ingest_blacklist_barriers_total",
			"Flush barriers forced by blacklist updates mid-stream.").With(),
		walEvents: reg.Counter("frappe_monitor_ingest_wal_events_total",
			"Ingestion events appended to the write-ahead log.").With(),
		walErrs: reg.Counter("frappe_monitor_ingest_wal_errors_total",
			"Ingestion WAL appends or syncs that failed.").With(),
		seconds: reg.Gauge("frappe_monitor_ingest_session_seconds",
			"Wall-clock seconds of the last queued-ingestion session.").With(),
	}
	if cfg.Resume && cfg.WAL != nil && cfg.WAL.End() > 0 {
		r, err := cfg.WAL.Reader(0)
		if err != nil {
			ing.failWAL(fmt.Errorf("mypagekeeper: resume: %w", err))
			ing.wal = nil
		} else {
			ing.logged, ing.unseen = r, cfg.WAL.End()
		}
	}
	reg.Gauge("frappe_monitor_shards",
		"Lock stripes in the MyPageKeeper monitor.").With().Set(float64(m.NumShards()))
	reg.Gauge("frappe_monitor_ingest_workers",
		"Queue workers in the current ingestion session.").With().Set(float64(workers))
	if workers == 1 {
		// One worker is the serial monitor with extra steps: skip the
		// queue machinery and observe synchronously.
		ing.queues = nil
		return ing
	}
	for i := range ing.queues {
		q := make(chan ingestItem, ingestQueueDepth)
		ing.queues[i] = q
		ing.wg.Add(1)
		go ing.run(q)
	}
	return ing
}

func (ing *Ingester) run(q chan ingestItem) {
	defer ing.wg.Done()
	for it := range q {
		if it.flush != nil {
			it.flush.Done()
			continue
		}
		ing.m.observeSeq(it.post, it.seq)
	}
}

// ensureOpen makes post-Close misuse fail loudly and attributably instead
// of as a bare send-on-closed-channel panic (or, on the single-worker fast
// path, as silent writes into a supposedly sealed session).
func (ing *Ingester) ensureOpen(method string) {
	if ing.closed.Load() {
		panic("mypagekeeper: Ingester." + method + " called after Close")
	}
}

// failWAL counts a WAL failure and keeps the first as the session's error.
func (ing *Ingester) failWAL(err error) {
	ing.walErrs.Inc()
	if ing.walErr == nil {
		ing.walErr = err
	}
}

// logEvent appends one event to the WAL, before the event is enqueued or
// applied; in a resumed session, an event the log already holds is
// matched against its record instead. A failing append does not stop
// in-memory ingestion — serving availability beats durability
// mid-stream — but the first error is retained and surfaced by Err and
// Close, and every failure is counted.
func (ing *Ingester) logEvent(ev WALEvent) {
	if ing.wal == nil {
		return
	}
	buf, err := AppendEvent(ing.encBuf[:0], ev)
	if err != nil {
		ing.failWAL(err)
		return
	}
	ing.encBuf = buf
	if ing.logged != nil {
		ing.matchLogged(buf)
		return
	}
	if _, err := ing.wal.Append(buf); err != nil {
		ing.failWAL(err)
		return
	}
	ing.walEvents.Inc()
}

// matchLogged checks a resumed event against the log's next record. On a
// mismatch the log holds another stream, so the session stops logging:
// extending it would leave a log that belongs to neither stream.
func (ing *Ingester) matchLogged(buf []byte) {
	rec, idx, err := ing.logged.Next()
	if err == nil && !bytes.Equal(rec, buf) {
		err = fmt.Errorf("record %d differs from the regenerated event: the log holds another stream", idx)
	}
	if err != nil {
		ing.failWAL(fmt.Errorf("mypagekeeper: resume: %w", err))
		ing.endResume()
		ing.wal = nil
		return
	}
	if ing.unseen--; ing.unseen == 0 {
		ing.endResume()
	}
}

// endResume releases the resumed log's reader.
func (ing *Ingester) endResume() {
	ing.logged.Close()
	ing.logged = nil
}

// syncWAL is the durability barrier: everything logged so far survives a
// crash once it returns.
func (ing *Ingester) syncWAL() {
	if ing.wal == nil {
		return
	}
	if err := ing.wal.Sync(); err != nil {
		ing.failWAL(err)
	}
}

// Observe enqueues one post. Unlike Monitor.Observe it cannot report the
// post's verdict — classification happens when a queue worker lands it.
func (ing *Ingester) Observe(p fbplatform.Post) {
	ing.ensureOpen("Observe")
	ing.logEvent(WALEvent{Kind: KindPost, Post: p})
	seq := ing.m.seq.Add(1)
	if ing.queues == nil {
		ing.m.observeSeq(p, seq)
		ing.posts.Inc()
		return
	}
	var qi uint64
	switch {
	case p.Link != "":
		qi = uint64(fnv32a(p.Link)) % uint64(len(ing.queues))
	case p.AppID != "":
		qi = uint64(fnv32a(p.AppID)) % uint64(len(ing.queues))
	default:
		qi = seq % uint64(len(ing.queues))
	}
	ing.queues[qi] <- ingestItem{post: p, seq: seq}
	ing.posts.Inc()
}

// ObserveInstall logs a user installing an app. The monitor keeps no
// per-user install state, so the event's only destination is the WAL —
// durable churn history for offset-tracked consumers.
func (ing *Ingester) ObserveInstall(appID string, userID int) {
	ing.ensureOpen("ObserveInstall")
	ing.logEvent(WALEvent{Kind: KindInstall, AppID: appID, UserID: userID})
}

// ObserveRemoval logs a user removing an app.
func (ing *Ingester) ObserveRemoval(appID string, userID int) {
	ing.ensureOpen("ObserveRemoval")
	ing.logEvent(WALEvent{Kind: KindRemoval, AppID: appID, UserID: userID})
}

// Flush blocks until every post enqueued so far has been fully observed,
// and fsyncs the WAL — a Flush is a barrier in both senses.
func (ing *Ingester) Flush() {
	ing.ensureOpen("Flush")
	ing.flushQueues()
	ing.syncWAL()
}

func (ing *Ingester) flushQueues() {
	if ing.queues == nil {
		ing.flushes.Inc()
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(ing.queues))
	for _, q := range ing.queues {
		q <- ingestItem{flush: &wg}
	}
	wg.Wait()
	ing.flushes.Inc()
}

// AddBlacklistedURL adds a URL-granularity blacklist entry, sequenced
// against the queued stream: if the URL is already an entry this is a
// no-op (re-adds commute with everything — but are still logged, so the
// WAL stays the exact call stream); otherwise every queue is flushed
// first, so exactly the posts the serial monitor would classify
// pre-blacklist are classified pre-blacklist, and the WAL is fsynced —
// a blacklist add is a durability barrier.
func (ing *Ingester) AddBlacklistedURL(url string) {
	ing.ensureOpen("AddBlacklistedURL")
	ing.logEvent(WALEvent{Kind: KindBlacklistURL, Value: url})
	if ing.m.urlBlacklistedExact(url) {
		return
	}
	ing.barriers.Inc()
	ing.flushQueues()
	ing.syncWAL()
	ing.m.AddBlacklistedURL(url)
}

// AddBlacklistedDomain is AddBlacklistedURL for domain-granularity entries.
func (ing *Ingester) AddBlacklistedDomain(domain string) {
	ing.ensureOpen("AddBlacklistedDomain")
	ing.logEvent(WALEvent{Kind: KindBlacklistDomain, Value: domain})
	if ing.m.domainBlacklistedExact(domain) {
		return
	}
	ing.barriers.Inc()
	ing.flushQueues()
	ing.syncWAL()
	ing.m.AddBlacklistedDomain(domain)
}

// Err returns the first WAL failure of the session, if any. In-memory
// ingestion continues past WAL errors; durability does not.
func (ing *Ingester) Err() error { return ing.walErr }

// Close drains every queue, stops the workers, fsyncs the WAL (the
// session-end barrier) and records the session duration. It returns the
// first WAL error of the session — a caller that needs the durability
// guarantee must check it. The Ingester must not be used after Close;
// doing so panics with a descriptive message. Close does not close the
// WAL itself: the log outlives the session (consumers still read it).
func (ing *Ingester) Close() error {
	if !ing.closed.CompareAndSwap(false, true) {
		return ing.closeErr
	}
	for _, q := range ing.queues {
		close(q)
	}
	ing.wg.Wait()
	ing.syncWAL()
	ing.seconds.Set(time.Since(ing.started).Seconds())
	if ing.logged != nil {
		// The resumed stream ended inside the log's records: the producer
		// did not regenerate the same stream.
		ing.endResume()
		ing.failWAL(fmt.Errorf(
			"mypagekeeper: resume stream ended with %d logged events still unseen", ing.unseen))
	}
	ing.closeErr = ing.walErr
	return ing.closeErr
}
