// Command perfbench is the repository's benchmark. One run measures one
// workload for a fixed time, checks every output against a computation made
// apart from the program, and prints one JSON result line:
//
//	go run . --workload check_hot --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// the run wraps each layer boundary in the benchmark's own spans and the
// result carries the per-layer metrics instead. README.md documents the
// workloads, the metrics and how they map onto each other.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// processStart is taken as early as the process allows: setup_s runs from
// here to the first measured operation.
var processStart = time.Now()

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// scratch is a per-run directory inside the checkout for WALs and lab
	// stores; it is removed before the process exits.
	scratch string
	// out is where traced runs write their span log and per-layer table.
	out string
	// calibration is how long the machine-speed loop took before the
	// workload ran; setup_s leaves it out, as it is the benchmark's own.
	calibration time.Duration
}

// setupTime is the time since process start, less the calibration loop.
func (c runConfig) setupTime() time.Duration { return time.Since(processStart) - c.calibration }

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload hands back to main.
type report struct {
	attempted, failed int64
	// e2e and layers are filled by untraced and traced runs respectively;
	// a traced run also computes e2e (printed as a reference figure only).
	e2e    map[string]metric
	layers map[string]metric
	// problems lists every output check that failed; empty means correct.
	problems []string
	// notes are reference figures printed beside the result line.
	notes []string
}

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(runConfig) (*report, error){
	"check_hot":  runCheckHot,
	"check_miss": runCheckMiss,
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: check_hot or check_miss")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.IntVar(&cfg.seconds, "seconds", 15, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 records per-layer spans and reports per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n",
			cfg.workload, cfg.seconds, trace)
		os.Exit(2)
	}
	os.Exit(mainRun(cfg, run))
}

func mainRun(cfg runConfig, run func(runConfig) (*report, error)) int {
	// The program logs through slog at the level it runs with in production:
	// its lines are still formatted, a cost it pays there too, but go
	// nowhere, so terminal or pipe I/O cannot disturb the timings.
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelWarn})))

	base, err := filepath.Abs(".bench_build")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cfg.out = filepath.Join(base, "traces")
	cfg.scratch = filepath.Join(base, fmt.Sprintf("scratch-%d", os.Getpid()))
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.scratch)

	cfg.calibration = calibrate()
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	fmt.Printf("calibration_ms before=%.3f after=%.3f\n", ms(cfg.calibration), ms(calibrate()))
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "CHECK FAILED:", p)
	}
	metrics := rep.e2e
	if cfg.trace {
		metrics = rep.layers
		names := make([]string, 0, len(rep.e2e))
		for name := range rep.e2e {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("traced_e2e %s=%.6g %s\n", name, rep.e2e[name].Value, rep.e2e[name].Unit)
		}
	}
	return printResult(os.Stdout, rep, metrics)
}

// printResult writes the result line and returns the exit code: 0 when
// every output check passed.
func printResult(w io.Writer, rep *report, metrics map[string]metric) int {
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(rep.problems) == 0, rep.attempted, rep.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	if len(rep.problems) > 0 {
		return 1
	}
	return 0
}

// calibrate times a fixed pure-Go loop. Printed before and after each run,
// it shows whether the host itself was slow during a run.
func calibrate() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibrationSink = x
	return time.Since(start)
}

var calibrationSink uint64
