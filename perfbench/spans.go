package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark's own tracing. A traced run wraps each layer boundary the
// benchmark can reach from outside the program — the HTTP handlers it
// mounts, the lab stages it runs, the public functions it calls — and
// records one span per crossing: layer name, start, end and the W3C trace
// ID the request carried, which is how spans of one request find each
// other across hops. Spans stay in memory until the run ends.

// span is one timed crossing of a layer boundary.
type span struct {
	layer      string
	trace      string
	start, end time.Duration // since the tracer's epoch
	bytes      int64         // response bytes, for HTTP spans
}

// tracer records spans; a nil tracer records nothing and wraps nothing, so
// untraced runs execute the same code with no wrapper in the path.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer(enabled bool) *tracer {
	if !enabled {
		return nil
	}
	t := &tracer{epoch: time.Now()}
	t.on.Store(true)
	return t
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// pause stops recording (for passes measured by other means); resume
// restarts it.
func (t *tracer) pause() {
	if t != nil {
		t.on.Store(false)
	}
}

func (t *tracer) resume() {
	if t != nil {
		t.on.Store(true)
	}
}

// wrap times h under the layer classify names for each request; requests
// classified "" pass through untimed.
func (t *tracer) wrap(classify func(*http.Request) string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		layer := classify(r)
		if layer == "" || !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		start := t.now()
		h.ServeHTTP(cw, r)
		t.add(span{layer: layer, trace: traceID(r.Header.Get("traceparent")),
			start: start, end: t.now(), bytes: cw.n})
	})
}

// timed runs fn as one span of layer.
func (t *tracer) timed(layer string, fn func()) {
	if t == nil || !t.on.Load() {
		fn()
		return
	}
	start := t.now()
	fn()
	t.add(span{layer: layer, start: start, end: t.now()})
}

// traceID extracts the trace-id field of a W3C traceparent header.
func traceID(tp string) string {
	if len(tp) < 35 || tp[2] != '-' {
		return ""
	}
	return tp[3:35]
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// layerStat aggregates a layer's spans.
type layerStat struct {
	count int64
	total time.Duration
	// self is total minus the part of each span's interval that spans of
	// the same trace nested inside it cover.
	self  time.Duration
	bytes int64
}

func (s *layerStat) meanUS() float64     { return perOp(s.total, s.count, time.Microsecond) }
func (s *layerStat) meanSelfUS() float64 { return perOp(s.self, s.count, time.Microsecond) }

// stats aggregates every recorded span by layer, and returns each span's
// parent (the tightest enclosing span of the same trace; -1 for none).
func (t *tracer) stats() (map[string]*layerStat, []int) {
	out := make(map[string]*layerStat)
	if t == nil {
		return out, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parents := make([]int, len(t.spans))
	byTrace := make(map[string][]int)
	for i, s := range t.spans {
		parents[i] = -1
		if s.trace != "" {
			byTrace[s.trace] = append(byTrace[s.trace], i)
		}
	}
	childUnion := make([]time.Duration, len(t.spans))
	for _, idx := range byTrace {
		// Outer spans first: earlier start, then later end.
		sort.Slice(idx, func(a, b int) bool {
			sa, sb := t.spans[idx[a]], t.spans[idx[b]]
			if sa.start != sb.start {
				return sa.start < sb.start
			}
			return sa.end > sb.end
		})
		for a, i := range idx {
			outer := t.spans[i]
			var covered, reach time.Duration
			reach = outer.start
			for _, j := range idx[a+1:] {
				inner := t.spans[j]
				if inner.start >= outer.end {
					break
				}
				if inner.end > outer.end {
					continue
				}
				if parents[j] == -1 || t.spans[parents[j]].end-t.spans[parents[j]].start > outer.end-outer.start {
					parents[j] = i
				}
				lo, hi := inner.start, inner.end
				if lo < reach {
					lo = reach
				}
				if hi > lo {
					covered += hi - lo
					reach = hi
				}
			}
			childUnion[i] = covered
		}
	}
	for i, s := range t.spans {
		st := out[s.layer]
		if st == nil {
			st = &layerStat{}
			out[s.layer] = st
		}
		st.count++
		st.total += s.end - s.start
		st.self += s.end - s.start - childUnion[i]
		st.bytes += s.bytes
	}
	return out, parents
}

// maxSpansWritten bounds the span log a traced run leaves behind; the
// per-layer table is computed from every span regardless.
const maxSpansWritten = 20000

// write saves the per-layer table and the first spans to dir.
func (t *tracer) write(dir, name string, layers map[string]metric) error {
	if t == nil {
		return nil
	}
	_, parents := t.stats()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(map[string]any{"layers": layers}); err != nil {
		f.Close()
		return err
	}
	t.mu.Lock()
	for i, s := range t.spans {
		if i == maxSpansWritten {
			break
		}
		if err := enc.Encode(map[string]any{"id": i, "layer": s.layer, "trace": s.trace,
			"parent": parents[i], "start_ns": int64(s.start), "end_ns": int64(s.end)}); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing span log: %w", err)
	}
	return f.Close()
}
