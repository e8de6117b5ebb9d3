package synth

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// walSize sums the log's segment files in dir.
func walSize(t *testing.T, dir string) int64 {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments in %s (err %v)", dir, err)
	}
	var size int64
	for _, seg := range segs {
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		size += fi.Size()
	}
	return size
}

// TestWALDirResumesExistingLog: a second generation into a directory that
// already holds a log resumes it rather than appending the stream again,
// so the log stays at one generation's size and the world is unchanged.
func TestWALDirResumesExistingLog(t *testing.T) {
	cfg := TestConfig()
	cfg.Scale = 0.003
	cfg.WALDir = t.TempDir()
	first := Generate(cfg)
	written := walSize(t, cfg.WALDir)
	second := Generate(cfg)
	if got := walSize(t, cfg.WALDir); got != written {
		t.Errorf("second generation left a %d-byte log, want the %d bytes of one generation", got, written)
	}
	if first.WALResumed != 0 || second.WALResumed == 0 {
		t.Errorf("WALResumed = %d then %d, want 0 then the first log's length", first.WALResumed, second.WALResumed)
	}
	if sa, sb := first.Monitor.Stats(), second.Monitor.Stats(); sa != sb {
		t.Errorf("monitor stats differ: %+v vs %+v", sa, sb)
	}
}

// TestWALDirRefusesAnotherWorldsLog: generating into a directory that
// holds another world's log fails at the first record the two streams
// disagree on, and leaves that log as it was instead of extending it.
func TestWALDirRefusesAnotherWorldsLog(t *testing.T) {
	cfg := TestConfig()
	cfg.Scale = 0.002
	cfg.WALDir = t.TempDir()
	Generate(cfg)
	written := walSize(t, cfg.WALDir)

	cfg.Scale = 0.003
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "differs from the regenerated event") {
				t.Errorf("generating over another world's log: panic %v, want a record mismatch", r)
			}
		}()
		Generate(cfg)
	}()
	if got := walSize(t, cfg.WALDir); got != written {
		t.Errorf("log is %d bytes after the refused generation, want the %d it held", got, written)
	}
}
