package mypagekeeper

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"frappe/internal/fbplatform"
	"frappe/internal/wal"
)

func TestEventCodecRoundTrip(t *testing.T) {
	events := []WALEvent{
		{Kind: KindPost, Post: fbplatform.Post{
			AppID: "app01", SourceAppID: "app02", UserID: 42,
			Message: "FREE ipad, hurry!", Link: "http://scam0.example/lure",
			Month: 7, Likes: 3, MaliciousLink: true,
		}},
		{Kind: KindPost, Post: fbplatform.Post{}}, // all zero values
		{Kind: KindBlacklistURL, Value: "http://scam1.example/lure"},
		{Kind: KindBlacklistDomain, Value: "evil0.example"},
		{Kind: KindBlacklistURL, Value: ""}, // degenerate but encodable
		{Kind: KindInstall, AppID: "app03", UserID: 9},
		{Kind: KindRemoval, AppID: "app03", UserID: 9},
	}
	for i, ev := range events {
		buf, err := AppendEvent(nil, ev)
		if err != nil {
			t.Fatalf("event %d: AppendEvent: %v", i, err)
		}
		got, err := DecodeEvent(buf)
		if err != nil {
			t.Fatalf("event %d: DecodeEvent: %v", i, err)
		}
		if !reflect.DeepEqual(ev, got) {
			t.Fatalf("event %d: round trip = %+v, want %+v", i, got, ev)
		}
		// Every strict prefix must fail to decode: truncation is detected,
		// never silently filled with zero values.
		for cut := 0; cut < len(buf); cut++ {
			if _, err := DecodeEvent(buf[:cut]); err == nil {
				t.Fatalf("event %d: DecodeEvent accepted a %d/%d-byte prefix", i, cut, len(buf))
			}
		}
		// So must trailing garbage: one record is exactly one event.
		if _, err := DecodeEvent(append(append([]byte{}, buf...), 0)); err == nil {
			t.Fatalf("event %d: DecodeEvent accepted trailing bytes", i)
		}
	}
}

func TestEventCodecRejectsInvalid(t *testing.T) {
	if _, err := AppendEvent(nil, WALEvent{Kind: EventKind(99)}); err == nil {
		t.Fatal("want error encoding unknown kind")
	}
	if _, err := AppendEvent(nil, WALEvent{Kind: KindPost, Post: fbplatform.Post{UserID: -1}}); err == nil {
		t.Fatal("want error encoding negative user ID")
	}
	if _, err := AppendEvent(nil, WALEvent{Kind: KindInstall, UserID: -1}); err == nil {
		t.Fatal("want error encoding negative install user ID")
	}
	if _, err := DecodeEvent([]byte{99}); !errors.Is(err, ErrBadEvent) {
		t.Fatalf("decoding unknown kind: %v, want ErrBadEvent", err)
	}
	if _, err := DecodeEvent(nil); !errors.Is(err, ErrBadEvent) {
		t.Fatalf("decoding empty record: %v, want ErrBadEvent", err)
	}
}

// feedIngester pushes the oracle workload through an Ingester — the same
// call mapping applySerial uses against the bare monitor.
func feedIngester(ing *Ingester, events []streamEvent) {
	for _, e := range events {
		switch {
		case e.blackURL != "":
			ing.AddBlacklistedURL(e.blackURL)
		case e.hasDomain:
			ing.AddBlacklistedDomain(e.blackDom)
		default:
			ing.Observe(e.post)
		}
	}
}

// newSubscribed returns a monitor subscribed to users [0,80), genStream's
// subscriber range, as shard_test.go's suites use it: an unsubscribed
// monitor drops every post, and views compared without posts prove
// nothing.
func newSubscribed() *Monitor {
	m := New(DefaultClassifierConfig())
	m.SubscribeRange(0, 80)
	return m
}

// oracleView is viewOf for an oracle monitor, failing the test when the
// oracle observed no posts, so an empty comparison cannot pass silently.
func oracleView(t *testing.T, m *Monitor) monitorView {
	t.Helper()
	v := viewOf(m)
	if v.stats.PostsObserved == 0 {
		t.Fatal("oracle monitor observed no posts")
	}
	return v
}

// applySerialPrefix applies the first n events serially — the oracle for
// "the WAL holds exactly the logged call prefix".
func applySerialPrefix(m *Monitor, events []streamEvent, n int) {
	applySerial(m, events[:n])
}

// TestWALReplayEquivalence is the durability half of the determinism
// claim: a monitor rebuilt by replaying the WAL is byte-identical (same
// Apps/Stats/flag views) to both the live ingested monitor and the serial
// oracle, for every worker count.
func TestWALReplayEquivalence(t *testing.T) {
	events := genStream(3000)
	serial := newSubscribed()
	applySerial(serial, events)
	want := oracleView(t, serial)

	for _, workers := range []int{1, 4} {
		dir := t.TempDir()
		l, err := wal.Open(dir, wal.Options{SegmentBytes: 64 << 10})
		if err != nil {
			t.Fatal(err)
		}
		live := newSubscribed()
		ing := live.StartIngestWith(IngestConfig{Workers: workers, WAL: l})
		feedIngester(ing, events)
		if err := ing.Close(); err != nil {
			t.Fatalf("workers=%d: Close: %v", workers, err)
		}
		requireEqualViews(t, want, viewOf(live), "live ingested monitor")
		if got := l.End(); got != uint64(len(events)) {
			t.Fatalf("workers=%d: WAL holds %d records, want %d (one per call)", workers, got, len(events))
		}

		replayed := newSubscribed()
		stats, err := Replay(replayed, l, 0, nil)
		if err != nil {
			t.Fatalf("workers=%d: Replay: %v", workers, err)
		}
		if stats.Records != uint64(len(events)) || stats.Next != uint64(len(events)) {
			t.Fatalf("workers=%d: ReplayStats = %+v, want %d records", workers, stats, len(events))
		}
		requireEqualViews(t, want, viewOf(replayed), "WAL-replayed monitor")
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALResumeSkipEvents is the crash-recovery resume contract: replay
// the log into a fresh monitor, then re-run the deterministic producer
// with SkipEvents set to the replayed record count. Already-replayed calls
// are dropped 1:1, nothing is double-applied or double-logged, and the end
// state matches the uninterrupted serial run.
func TestWALResumeSkipEvents(t *testing.T) {
	events := genStream(2500)
	serial := newSubscribed()
	applySerial(serial, events)
	want := oracleView(t, serial)

	for _, cut := range []int{0, 1, 1234, len(events) - 1, len(events)} {
		dir := t.TempDir()
		l, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		first := newSubscribed()
		ing := first.StartIngestWith(IngestConfig{Workers: 4, WAL: l})
		feedIngester(ing, events[:cut])
		if err := ing.Close(); err != nil {
			t.Fatalf("cut=%d: first session Close: %v", cut, err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		// "Restart": reopen the log, rebuild state by replay, resume the
		// regenerated stream past the replayed prefix.
		l2, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		resumed := newSubscribed()
		stats, err := Replay(resumed, l2, 0, nil)
		if err != nil {
			t.Fatalf("cut=%d: Replay: %v", cut, err)
		}
		if stats.Records != uint64(cut) {
			t.Fatalf("cut=%d: replayed %d records", cut, stats.Records)
		}
		ing2 := resumed.StartIngestWith(IngestConfig{Workers: 2, WAL: l2, SkipEvents: stats.Records})
		feedIngester(ing2, events)
		if err := ing2.Close(); err != nil {
			t.Fatalf("cut=%d: resumed session Close: %v", cut, err)
		}
		requireEqualViews(t, want, viewOf(resumed), "resumed monitor")
		if got := l2.End(); got != uint64(len(events)) {
			t.Fatalf("cut=%d: WAL holds %d records after resume, want %d", cut, got, len(events))
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALResumeSkipLogOnly is the other resume mode (what the synth world
// uses): no up-front replay — the regenerated stream is applied in full,
// and only the WAL appends for the already-logged prefix are suppressed.
// The final log must be the exact uninterrupted call stream, with no
// duplicated records, and the monitor must match the serial oracle.
func TestWALResumeSkipLogOnly(t *testing.T) {
	events := genStream(2000)
	serial := newSubscribed()
	applySerial(serial, events)
	want := oracleView(t, serial)

	for _, cut := range []int{0, 777, len(events)} {
		dir := t.TempDir()
		l, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		first := newSubscribed()
		ing := first.StartIngestWith(IngestConfig{Workers: 3, WAL: l})
		feedIngester(ing, events[:cut])
		if err := ing.Close(); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		l2, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		resumed := newSubscribed()
		ing2 := resumed.StartIngestWith(IngestConfig{
			Workers: 4, WAL: l2, SkipEvents: l2.End(), SkipLogOnly: true,
		})
		feedIngester(ing2, events)
		if err := ing2.Close(); err != nil {
			t.Fatalf("cut=%d: Close: %v", cut, err)
		}
		requireEqualViews(t, want, viewOf(resumed), "skip-log-only resumed monitor")
		if got := l2.End(); got != uint64(len(events)) {
			t.Fatalf("cut=%d: WAL holds %d records, want %d", cut, got, len(events))
		}
		// And the completed log still replays to the same state.
		replayed := newSubscribed()
		if _, err := Replay(replayed, l2, 0, nil); err != nil {
			t.Fatal(err)
		}
		requireEqualViews(t, want, viewOf(replayed), "replay of completed log")
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestResumeStreamTooShort: a resumed producer that fails to regenerate the
// full replayed prefix is a broken contract, and Close must say so.
func TestResumeStreamTooShort(t *testing.T) {
	m := New(DefaultClassifierConfig())
	ing := m.StartIngestWith(IngestConfig{Workers: 1, SkipEvents: 10})
	ing.Observe(fbplatform.Post{AppID: "app01"})
	err := ing.Close()
	if err == nil || !strings.Contains(err.Error(), "unseen") {
		t.Fatalf("Close after short resume stream: %v, want unseen-events error", err)
	}
}

// TestIngesterUseAfterClose is the regression test for the shipped bug:
// Observe after Close used to die with a bare send-on-closed-channel
// panic deep in the queue machinery (or, on the single-worker path,
// silently mutate a sealed session). It must fail loudly and point at the
// misuse.
func TestIngesterUseAfterClose(t *testing.T) {
	for _, workers := range []int{1, 4} {
		m := New(DefaultClassifierConfig())
		ing := m.StartIngest(workers)
		ing.Observe(fbplatform.Post{AppID: "app01", Link: "http://a.example/x"})
		if err := ing.Close(); err != nil {
			t.Fatal(err)
		}
		if err := ing.Close(); err != nil { // Close is idempotent
			t.Fatalf("second Close: %v", err)
		}
		calls := map[string]func(){
			"Observe":              func() { ing.Observe(fbplatform.Post{}) },
			"Flush":                func() { ing.Flush() },
			"AddBlacklistedURL":    func() { ing.AddBlacklistedURL("http://b.example/y") },
			"AddBlacklistedDomain": func() { ing.AddBlacklistedDomain("b.example") },
			"ObserveInstall":       func() { ing.ObserveInstall("app01", 1) },
			"ObserveRemoval":       func() { ing.ObserveRemoval("app01", 1) },
		}
		for name, call := range calls {
			func() {
				defer func() {
					r := recover()
					if r == nil {
						t.Fatalf("workers=%d: %s after Close did not panic", workers, name)
					}
					msg, ok := r.(string)
					if !ok || !strings.Contains(msg, name) || !strings.Contains(msg, "after Close") {
						t.Fatalf("workers=%d: %s panic = %v, want descriptive message", workers, name, r)
					}
				}()
				call()
			}()
		}
	}
}

// TestInstallEventsRoundTripThroughWAL: the monitor keeps no install
// state, but the WAL must carry install/removal churn to consumers.
func TestInstallEventsRoundTripThroughWAL(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	m := New(DefaultClassifierConfig())
	ing := m.StartIngestWith(IngestConfig{Workers: 2, WAL: l})
	ing.ObserveInstall("app01", 7)
	ing.Observe(fbplatform.Post{AppID: "app01", Link: "http://a.example/x"})
	ing.ObserveRemoval("app01", 7)
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}

	type churn struct {
		app     string
		user    int
		removed bool
	}
	var got []churn
	stats, err := Replay(New(DefaultClassifierConfig()), l, 0, func(appID string, userID int, removed bool) {
		got = append(got, churn{appID, userID, removed})
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []churn{{"app01", 7, false}, {"app01", 7, true}}
	if stats.Installs != 2 || stats.Posts != 1 || !reflect.DeepEqual(got, want) {
		t.Fatalf("stats=%+v churn=%v", stats, got)
	}
}

const crashHelperEnv = "FRAPPE_CRASH_WAL_DIR"

// crashStreamSize is shared by the helper and the parent: the resumed run
// regenerates the identical stream.
const crashStreamSize = 20000

// TestCrashIngestHelper is not a test: it is the subprocess body for
// TestCrashRecoveryAfterSIGKILL. It ingests a large deterministic stream
// through a WAL-backed session, pacing itself so the parent can SIGKILL it
// mid-stream.
func TestCrashIngestHelper(t *testing.T) {
	dir := os.Getenv(crashHelperEnv)
	if dir == "" {
		t.Skip("subprocess helper; driven by TestCrashRecoveryAfterSIGKILL")
	}
	l, err := wal.Open(dir, wal.Options{SyncEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	m := newSubscribed()
	ing := m.StartIngestWith(IngestConfig{Workers: 4, WAL: l})
	events := genStream(crashStreamSize)
	for i, e := range events {
		switch {
		case e.blackURL != "":
			ing.AddBlacklistedURL(e.blackURL)
		case e.hasDomain:
			ing.AddBlacklistedDomain(e.blackDom)
		default:
			ing.Observe(e.post)
		}
		if i%64 == 63 {
			time.Sleep(time.Millisecond) // let the parent land its kill mid-stream
		}
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	l.Close()
}

// TestCrashRecoveryAfterSIGKILL is the end-to-end durability test: SIGKILL
// a WAL-backed ingestion mid-stream, recover by replay (the recovered
// state must equal the serial oracle over exactly the logged prefix), then
// resume the regenerated stream with SkipEvents and land byte-identical to
// the uninterrupted run.
func TestCrashRecoveryAfterSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=TestCrashIngestHelper$")
	cmd.Env = append(os.Environ(), crashHelperEnv+"="+dir)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Wait for real progress, watching segment sizes with os.Stat only —
	// opening the live WAL from here would truncate what the child is
	// still appending.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var total int64
		matches, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
		for _, p := range matches {
			if st, err := os.Stat(p); err == nil {
				total += st.Size()
			}
		}
		if total > 32<<10 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("helper wrote only %d WAL bytes before deadline", total)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no deferred cleanup runs
		t.Fatal(err)
	}
	cmd.Wait()

	events := genStream(crashStreamSize)
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatalf("recovery Open: %v", err)
	}
	recovered := newSubscribed()
	stats, err := Replay(recovered, l, 0, nil)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if stats.Records == 0 {
		t.Fatal("replay recovered zero records from a killed ingest")
	}
	if stats.Records > uint64(len(events)) {
		t.Fatalf("replay recovered %d records from a %d-event stream", stats.Records, len(events))
	}
	t.Logf("recovered %d/%d events after SIGKILL", stats.Records, len(events))

	// The log is the exact call stream, so the recovered state must match
	// the serial oracle over precisely that prefix.
	prefix := newSubscribed()
	applySerialPrefix(prefix, events, int(stats.Records))
	requireEqualViews(t, oracleView(t, prefix), viewOf(recovered), "replayed crash prefix")

	// Resume: regenerate the stream, skip the replayed prefix, finish.
	ing := recovered.StartIngestWith(IngestConfig{Workers: 3, WAL: l, SkipEvents: stats.Records})
	feedIngester(ing, events)
	if err := ing.Close(); err != nil {
		t.Fatalf("resumed Close: %v", err)
	}
	if got := l.End(); got != uint64(len(events)) {
		t.Fatalf("WAL holds %d records after resume, want %d", got, len(events))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	uninterrupted := newSubscribed()
	applySerial(uninterrupted, events)
	requireEqualViews(t, oracleView(t, uninterrupted), viewOf(recovered), "crash-resumed monitor")
}
