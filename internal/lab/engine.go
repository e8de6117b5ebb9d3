package lab

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"sort"
	"sync"
	"time"

	"frappe/internal/telemetry"
	"frappe/internal/workerpool"
)

// Options configure an engine run.
type Options struct {
	// Store is the artifact cache; required.
	Store *Store
	// Workers bounds concurrent stage execution; 0 means GOMAXPROCS.
	Workers int
	// Telemetry receives the frappe_lab_* families; nil means the process
	// default registry.
	Telemetry *telemetry.Registry
	// Logger receives per-stage progress lines; nil disables them.
	Logger *slog.Logger
	// Force picks the stages that ignore their cached artifact and run,
	// still storing what they produce; nil forces none. A forced stage
	// whose artifact comes out unchanged leaves its dependents'
	// fingerprints as they were, so they can still hit.
	Force func(stage string) bool
}

// ForceAll forces every stage.
func ForceAll(string) bool { return true }

// engine is the runtime state of one Run call.
type engine struct {
	opts  Options
	nodes map[string]*node

	// metrics
	seconds     *telemetry.GaugeVec
	runs        *telemetry.CounterVec
	hits        *telemetry.CounterVec
	misses      *telemetry.CounterVec
	materialize *telemetry.CounterVec
	opens       *telemetry.CounterVec

	mu     sync.Mutex
	result *Result
	err    error
}

// Run executes the stages as a DAG: dependency-ordered, independent
// branches in parallel, cached stages skipped. It returns a Result even on
// error — completed stages have persisted their artifacts, so a re-run
// resumes from where this one stopped.
func Run(ctx context.Context, stages []Stage, opts Options) (*Result, error) {
	if opts.Store == nil {
		return nil, fmt.Errorf("lab: Options.Store is required")
	}
	levels, err := plan(stages)
	if err != nil {
		return nil, err
	}
	reg := opts.Telemetry
	if reg == nil {
		reg = telemetry.Default()
	}
	e := &engine{
		opts:  opts,
		nodes: make(map[string]*node, len(stages)),
		seconds: reg.Gauge("frappe_lab_stage_seconds",
			"Wall-clock seconds of the last execution of a lab stage.", "stage"),
		runs: reg.Counter("frappe_lab_stage_runs_total",
			"Run invocations per lab stage, including materializations.", "stage"),
		hits: reg.Counter("frappe_lab_cache_hits_total",
			"Artifact cache hits per lab stage.", "stage"),
		misses: reg.Counter("frappe_lab_cache_misses_total",
			"Artifact cache misses per lab stage.", "stage"),
		materialize: reg.Counter("frappe_lab_materialize_total",
			"Cache-hit stages re-run to recreate an in-memory value.", "stage"),
		opens: reg.Counter("frappe_lab_open_total",
			"Cache-hit artifacts rehydrated via the stage's Open hook.", "stage"),
	}
	res := &Result{Stages: make(map[string]*StageReport, len(stages))}
	for _, lvl := range levels {
		res.Order = append(res.Order, lvl...)
	}
	for _, s := range stages {
		rep := &StageReport{Name: s.Name, Status: StatusSkipped}
		res.Stages[s.Name] = rep
		e.nodes[s.Name] = &node{stage: s, report: rep, done: make(chan struct{})}
	}
	e.result = res

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	start := time.Now()
	for _, lvl := range levels {
		level := lvl
		workerpool.Run(len(level), workerpool.Clamp(workers, len(level)), func(i int) {
			n := e.nodes[level[i]]
			defer close(n.done)
			if ctx.Err() != nil {
				n.err = ctx.Err()
				return
			}
			if err := e.execute(ctx, n); err != nil {
				n.err = err
				e.fail(err, cancel)
			}
		})
		if e.failed() {
			break
		}
	}
	res.Elapsed = time.Since(start)
	res.ElapsedSeconds = res.Elapsed.Seconds()
	e.mu.Lock()
	err = e.err
	e.mu.Unlock()
	return res, err
}

func (e *engine) fail(err error, cancel context.CancelFunc) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
	cancel()
}

func (e *engine) failed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err != nil
}

// execute satisfies one stage: from cache when its fingerprint is stored,
// by running it otherwise.
func (e *engine) execute(ctx context.Context, n *node) error {
	depSHA := make(map[string]string, len(n.stage.Deps))
	for _, d := range n.stage.Deps {
		dn := e.nodes[d]
		<-dn.done // same or earlier level; already closed
		if dn.err != nil {
			return fmt.Errorf("lab: stage %s: dependency %s failed", n.stage.Name, d)
		}
		depSHA[d] = dn.sha
	}
	fp, err := fingerprint(n.stage, depSHA)
	if err != nil {
		return err
	}
	n.report.Fingerprint = fp

	if e.opts.Force == nil || !e.opts.Force(n.stage.Name) {
		if data, ok := e.opts.Store.Get(n.stage.Name, fp); ok {
			sum := shaHex(data)
			n.artifact, n.sha = data, sum
			n.report.Status = StatusHit
			n.report.SHA256 = sum
			n.report.artifact = data
			e.hits.With(n.stage.Name).Inc()
			e.count(func(r *Result) { r.Hits++ })
			e.log("stage cached", n, 0)
			return nil
		}
	}
	e.misses.With(n.stage.Name).Inc()
	e.count(func(r *Result) { r.Misses++ })

	start := time.Now()
	data, err := e.runStage(ctx, n, false)
	dur := time.Since(start)
	if err != nil {
		return fmt.Errorf("lab: stage %s: %w", n.stage.Name, err)
	}
	sum, err := e.opts.Store.Put(n.stage.Name, fp, data)
	if err != nil {
		return err
	}
	n.artifact, n.sha = data, sum
	n.report.Status = StatusRan
	n.report.SHA256 = sum
	n.report.Seconds = dur.Seconds()
	n.report.artifact = data
	e.seconds.With(n.stage.Name).Set(dur.Seconds())
	e.log("stage ran", n, dur)
	return nil
}

// runStage invokes Run with a fresh StageContext and bumps the run
// counters. Materializations reuse it with materializing=true.
func (e *engine) runStage(ctx context.Context, n *node, materializing bool) ([]byte, error) {
	e.runs.With(n.stage.Name).Inc()
	e.mu.Lock()
	n.report.Runs++
	e.mu.Unlock()
	sc := &StageContext{ctx: ctx, eng: e, node: n, materializing: materializing}
	return n.stage.Run(sc)
}

// value returns n's in-memory value, recreating it at most once: stages
// that ran published it via SetValue; cache hits rehydrate via Open or, as
// a last resort, re-run as a materialization. Materializations execute
// synchronously in the demanding stage's worker, so they cannot deadlock
// the scheduler.
func (e *engine) value(ctx context.Context, n *node) (any, error) {
	<-n.done
	if n.err != nil {
		return nil, fmt.Errorf("lab: stage %s failed", n.stage.Name)
	}
	n.mu.Lock()
	if n.hasValue {
		v := n.value
		n.mu.Unlock()
		return v, nil
	}
	n.mu.Unlock()
	n.valOnce.Do(func() {
		if n.stage.Open != nil {
			v, err := n.stage.Open(n.artifact)
			if err != nil {
				n.valErr = fmt.Errorf("lab: stage %s: opening artifact: %w", n.stage.Name, err)
				return
			}
			e.opens.With(n.stage.Name).Inc()
			e.count(func(r *Result) { r.Opens++ })
			n.mu.Lock()
			n.value, n.hasValue = v, true
			n.mu.Unlock()
			return
		}
		// No Open hook: re-run the stage to rebuild its value. The fresh
		// artifact must match the cached one — a mismatch means the stage
		// is nondeterministic and the cached downstream cone is suspect.
		start := time.Now()
		data, err := e.runStage(ctx, n, true)
		if err != nil {
			n.valErr = fmt.Errorf("lab: stage %s: materializing: %w", n.stage.Name, err)
			return
		}
		e.materialize.With(n.stage.Name).Inc()
		e.count(func(r *Result) { r.Materializations++ })
		e.log("stage materialized", n, time.Since(start))
		if sum := shaHex(data); sum != n.sha {
			n.valErr = fmt.Errorf("lab: stage %s: materialized artifact %s differs from cached %s (nondeterministic stage?)",
				n.stage.Name, sum[:12], n.sha[:12])
			return
		}
		n.mu.Lock()
		if !n.hasValue {
			n.valErr = fmt.Errorf("lab: stage %s has no Open hook and its Run published no value", n.stage.Name)
		}
		n.mu.Unlock()
	})
	if n.valErr != nil {
		return nil, n.valErr
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.value, nil
}

func (e *engine) count(f func(*Result)) {
	e.mu.Lock()
	f(e.result)
	e.mu.Unlock()
}

func (e *engine) log(msg string, n *node, dur time.Duration) {
	if e.opts.Logger == nil {
		return
	}
	if dur > 0 {
		e.opts.Logger.Info(msg, "stage", n.stage.Name, "t", dur.Round(time.Millisecond).String())
		return
	}
	e.opts.Logger.Info(msg, "stage", n.stage.Name)
}

// plan validates the DAG and returns its topological levels: level 0 holds
// the roots, level k the stages whose deepest dependency sits at k-1.
// Stages within a level are sorted by name, so the schedule is
// deterministic.
func plan(stages []Stage) ([][]string, error) {
	byName := make(map[string]Stage, len(stages))
	for _, s := range stages {
		if s.Name == "" {
			return nil, fmt.Errorf("lab: stage with empty name")
		}
		if s.Run == nil {
			return nil, fmt.Errorf("lab: stage %s has no Run", s.Name)
		}
		if _, dup := byName[s.Name]; dup {
			return nil, fmt.Errorf("lab: duplicate stage %q", s.Name)
		}
		byName[s.Name] = s
	}
	for _, s := range stages {
		for _, d := range s.Deps {
			if d == s.Name {
				return nil, fmt.Errorf("lab: stage %s depends on itself", s.Name)
			}
			if _, ok := byName[d]; !ok {
				return nil, fmt.Errorf("lab: stage %s depends on unknown stage %q", s.Name, d)
			}
		}
	}
	// Depth via DFS with cycle detection.
	const (
		unvisited = 0
		visiting  = 1
		doneMark  = 2
	)
	state := make(map[string]int, len(stages))
	depth := make(map[string]int, len(stages))
	var visit func(name string) error
	visit = func(name string) error {
		switch state[name] {
		case visiting:
			return fmt.Errorf("lab: dependency cycle through stage %q", name)
		case doneMark:
			return nil
		}
		state[name] = visiting
		d := 0
		for _, dep := range byName[name].Deps {
			if err := visit(dep); err != nil {
				return err
			}
			if depth[dep]+1 > d {
				d = depth[dep] + 1
			}
		}
		state[name] = doneMark
		depth[name] = d
		return nil
	}
	names := make([]string, 0, len(stages))
	for _, s := range stages {
		names = append(names, s.Name)
	}
	sort.Strings(names)
	maxDepth := 0
	for _, n := range names {
		if err := visit(n); err != nil {
			return nil, err
		}
		if depth[n] > maxDepth {
			maxDepth = depth[n]
		}
	}
	levels := make([][]string, maxDepth+1)
	for _, n := range names {
		levels[depth[n]] = append(levels[depth[n]], n)
	}
	return levels, nil
}
