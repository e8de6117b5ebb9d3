package tracing

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The finished-trace store. Trace segments (one per instrumented process
// hop: the watchdog handler's, plus one per loopback service touched)
// publish here, sealed, as their segment root ends; segments sharing a
// trace id merge into one record, so /debug/traces shows the cross-service
// span tree stitched together by parent ids. Publishing links the sealed
// segment into its record and copies nothing; a segment's spans become
// FinishedSpans only when a reader asks for them.
//
// Memory is bounded two ways:
//
//   - a FIFO ring of the most recent traces (capacity fixed at New);
//   - an always-keep-slowest reservoir: the N traces with the longest
//     root duration survive ring eviction, so the slow outliers an
//     operator actually wants to inspect are still there after a burst
//     of fast traffic has rolled the ring over.

// FinishedSpan is one span's immutable published form.
type FinishedSpan struct {
	SpanID   string        `json:"span_id"`
	ParentID string        `json:"parent_id,omitempty"`
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"-"`
	// DurationMS mirrors Duration for the JSON schema (fractional ms).
	DurationMS float64    `json:"duration_ms"`
	Attrs      []AttrJSON `json:"attrs,omitempty"`
	Error      string     `json:"error,omitempty"`
	// Remote marks a segment root whose parent span lives in another
	// process (it arrived via a traceparent header).
	Remote bool `json:"remote,omitempty"`
	// Unfinished marks a span still open when its segment root ended;
	// its duration is "so far", not final.
	Unfinished bool `json:"unfinished,omitempty"`
}

// AttrJSON is the stable string-valued attribute form exposed over JSON.
type AttrJSON struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanNode is a span plus its children, the /debug/traces tree form.
type SpanNode struct {
	FinishedSpan
	Children []*SpanNode `json:"children,omitempty"`
}

// TraceJSON is one trace's exposition form: the stitched span tree(s)
// plus summary fields.
type TraceJSON struct {
	TraceID string `json:"trace_id"`
	// DurationMS is the root span's duration (the longest segment root's
	// when no true root was captured).
	DurationMS float64   `json:"duration_ms"`
	Spans      int       `json:"spans"`
	Start      time.Time `json:"start"`
	// Roots holds the top of each span tree: normally one true root;
	// orphan segments (whose remote parent was never captured locally)
	// appear as additional roots.
	Roots []*SpanNode `json:"roots"`
}

// traceRecord is one trace's published segments.
type traceRecord struct {
	id          TraceID
	first, last *segment // publish order, linked through segment.next
	// rootDur is the true root's duration when hasRoot, else the longest
	// segment-root duration seen so far — the slow-reservoir sort key.
	rootDur time.Duration
	hasRoot bool
	inRing  bool // in the recent ring
	inSlow  bool // in the slow reservoir
}

// segments returns the record's segments. Call with Store.mu held.
func (rec *traceRecord) segments() []*segment {
	var segs []*segment
	for seg := rec.first; seg != nil; seg = seg.next {
		segs = append(segs, seg)
	}
	return segs
}

// Store holds finished traces. Safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	slowN   int
	byID    map[TraceID]*traceRecord
	ring    []*traceRecord // fixed capacity; ring[head] is the oldest once full
	head    int
	slowest []*traceRecord // by rootDur descending, ties in arrival order; ≤ slowN

	published uint64 // segments published
	evicted   uint64 // records fully dropped
}

func newStore(capacity, slowN int) *Store {
	return &Store{
		slowN:   slowN,
		byID:    make(map[TraceID]*traceRecord),
		ring:    make([]*traceRecord, capacity),
		slowest: make([]*traceRecord, 0, slowN),
	}
}

// publish merges one sealed segment into the store.
func (st *Store) publish(seg *segment) {
	root := seg.root
	dur := root.end.Sub(root.start)
	trueRoot := root.parentID.IsZero() && !root.remote
	st.mu.Lock()
	defer st.mu.Unlock()
	st.published++
	rec := st.byID[seg.id]
	if rec == nil {
		rec = &traceRecord{id: seg.id}
		st.byID[seg.id] = rec
		st.pushRecent(rec)
	}
	if rec.last == nil {
		rec.first = seg
	} else {
		rec.last.next = seg
	}
	rec.last = seg
	was := rec.rootDur
	switch {
	case trueRoot:
		rec.rootDur = dur
		rec.hasRoot = true
	case !rec.hasRoot && dur > rec.rootDur:
		rec.rootDur = dur
	}
	st.rank(rec, was)
}

// pushRecent puts rec in the ring, evicting the oldest trace unless the
// slow reservoir holds it.
func (st *Store) pushRecent(rec *traceRecord) {
	if old := st.ring[st.head]; old != nil {
		old.inRing = false
		st.dropIfUnheld(old)
	}
	st.ring[st.head] = rec
	rec.inRing = true
	st.head = (st.head + 1) % len(st.ring)
}

// rank updates the slow reservoir after rec's duration went from was to
// rec.rootDur. A member moves to its new rank: above equal durations when
// it grew, below them when it shrank. A non-member enters only when the
// reservoir has room or it beats the reservoir's minimum, and then ranks
// below equal durations, so ties keep arrival order.
func (st *Store) rank(rec *traceRecord, was time.Duration) {
	d := rec.rootDur
	if rec.inSlow {
		if d == was {
			return
		}
		i := 0
		for st.slowest[i] != rec {
			i++
		}
		st.slowest = append(st.slowest[:i], st.slowest[i+1:]...)
	} else if len(st.slowest) == st.slowN {
		last := st.slowest[len(st.slowest)-1]
		if d <= last.rootDur {
			return
		}
		st.slowest = st.slowest[:len(st.slowest)-1]
		last.inSlow = false
		st.dropIfUnheld(last)
	}
	grew := !rec.inSlow || d > was
	i := sort.Search(len(st.slowest), func(i int) bool {
		if grew {
			return st.slowest[i].rootDur < d
		}
		return st.slowest[i].rootDur <= d
	})
	st.slowest = append(st.slowest, nil)
	copy(st.slowest[i+1:], st.slowest[i:])
	st.slowest[i] = rec
	rec.inSlow = true
}

// dropIfUnheld forgets rec once neither the ring nor the reservoir holds it.
func (st *Store) dropIfUnheld(rec *traceRecord) {
	if !rec.inRing && !rec.inSlow {
		delete(st.byID, rec.id)
		st.evicted++
	}
}

// Len returns how many traces are currently retained.
func (st *Store) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.byID)
}

// Stats reports published-segment and evicted-record counts.
func (st *Store) Stats() (published, evicted uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.published, st.evicted
}

// Trace returns one trace's tree by hex id.
func (st *Store) Trace(hexID string) (TraceJSON, bool) {
	id, ok := ParseTraceID(hexID)
	if !ok {
		return TraceJSON{}, false
	}
	st.mu.Lock()
	rec, ok := st.byID[id]
	var segs []*segment
	if ok {
		segs = rec.segments()
	}
	st.mu.Unlock()
	if !ok {
		return TraceJSON{}, false
	}
	return renderTrace(id, segs), true
}

// Snapshot returns up to nRecent most-recent traces (newest first) and
// the slow reservoir (slowest first). nRecent <= 0 means 20.
func (st *Store) Snapshot(nRecent int) (recent, slowest []TraceJSON) {
	if nRecent <= 0 {
		nRecent = 20
	}
	type snap struct {
		id   TraceID
		segs []*segment
	}
	var recSnap, slowSnap []snap
	st.mu.Lock()
	for i := 1; i <= len(st.ring) && len(recSnap) < nRecent; i++ {
		rec := st.ring[(st.head-i+len(st.ring))%len(st.ring)]
		if rec == nil {
			break
		}
		recSnap = append(recSnap, snap{rec.id, rec.segments()})
	}
	for _, rec := range st.slowest {
		slowSnap = append(slowSnap, snap{rec.id, rec.segments()})
	}
	st.mu.Unlock()

	for _, s := range recSnap {
		recent = append(recent, renderTrace(s.id, s.segs))
	}
	for _, s := range slowSnap {
		slowest = append(slowest, renderTrace(s.id, s.segs))
	}
	return recent, slowest
}

// renderTrace renders a trace's sealed segments, in publish order, as a
// span tree. The segments are immutable, so this runs without a lock.
func renderTrace(id TraceID, segs []*segment) TraceJSON {
	var spans []FinishedSpan
	for _, seg := range segs {
		spans = seg.render(spans)
	}
	return buildTree(id, spans)
}

// buildTree stitches a flat span list into parent/child trees. Spans whose
// parent was not captured locally become additional roots, so a trace is
// never invisible just because one segment was evicted or remote.
func buildTree(id TraceID, spans []FinishedSpan) TraceJSON {
	nodes := make(map[string]*SpanNode, len(spans))
	order := make([]*SpanNode, 0, len(spans))
	for _, fs := range spans {
		n := &SpanNode{FinishedSpan: fs}
		nodes[fs.SpanID] = n
		order = append(order, n)
	}
	tj := TraceJSON{TraceID: id.String(), Spans: len(spans)}
	for _, n := range order {
		if n.ParentID != "" {
			if p, ok := nodes[n.ParentID]; ok && p != n {
				p.Children = append(p.Children, n)
				continue
			}
		}
		tj.Roots = append(tj.Roots, n)
	}
	for _, n := range order {
		sort.SliceStable(n.Children, func(i, j int) bool {
			return n.Children[i].Start.Before(n.Children[j].Start)
		})
	}
	sort.SliceStable(tj.Roots, func(i, j int) bool { return tj.Roots[i].Start.Before(tj.Roots[j].Start) })
	if len(tj.Roots) > 0 {
		tj.Start = tj.Roots[0].Start
		// Prefer the true root's duration; orphan-only traces fall back
		// to their longest top-level span.
		best := tj.Roots[0]
		for _, r := range tj.Roots {
			if r.ParentID == "" && !r.Remote {
				best = r
				break
			}
			if r.DurationMS > best.DurationMS {
				best = r
			}
		}
		tj.DurationMS = best.DurationMS
	}
	return tj
}

// durationMS renders d as fractional milliseconds.
func durationMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Handler serves the store as JSON:
//
//	GET /debug/traces            {"recent":[...],"slowest":[...]}
//	GET /debug/traces?n=50       up to 50 recent traces
//	GET /debug/traces?trace=ID   one trace by hex id (404 when absent)
//
// Each trace is a TraceJSON span tree; see DESIGN.md §11 for the schema.
func (st *Store) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if id := r.URL.Query().Get("trace"); id != "" {
			tj, ok := st.Trace(id)
			if !ok {
				w.WriteHeader(http.StatusNotFound)
				enc.Encode(map[string]string{"error": "trace not found: " + id})
				return
			}
			enc.Encode(tj)
			return
		}
		n := 0
		if s := r.URL.Query().Get("n"); s != "" {
			n, _ = strconv.Atoi(s)
		}
		recent, slowest := st.Snapshot(n)
		if recent == nil {
			recent = []TraceJSON{}
		}
		if slowest == nil {
			slowest = []TraceJSON{}
		}
		enc.Encode(struct {
			Recent  []TraceJSON `json:"recent"`
			Slowest []TraceJSON `json:"slowest"`
		}{recent, slowest})
	})
}
