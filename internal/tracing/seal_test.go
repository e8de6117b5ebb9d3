package tracing

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestSpanAllocations is the request path's allocation budget: a span is
// one allocation plus its context, a server segment allocates only its
// segment, spans, contexts and trace record, and nothing renders strings
// until /debug/traces is read. CI runs it without the race detector.
func TestSpanAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	tr := New(Options{})
	ctx, root := tr.Start(context.Background(), "root")
	child := testing.AllocsPerRun(200, func() {
		_, sp := tr.StartChild(ctx, "child")
		sp.SetAttr(String("service", "graph"), Int("status", 200), Bool("shared", true), Float("score", 0.5))
		sp.End()
	})
	tp := testing.AllocsPerRun(200, func() { _ = root.Traceparent() })
	root.End()

	// Every segment continues a different trace, so each one also makes
	// its store record.
	parents := make([]string, 256)
	for i := range parents {
		parents[i] = "00-" + NewTraceID().String() + "-" + NewSpanID().String() + "-01"
	}
	next := 0
	seg := testing.AllocsPerRun(200, func() {
		ctx, srv := tr.StartRemote(context.Background(), "http.server", parents[next])
		next++
		srv.SetAttr(String("service", "graph"), String("method", "GET"), String("path", "/app"))
		_, a := tr.StartChild(ctx, "watchdog.assess")
		a.SetAttr(String("app_id", "1"))
		_, b := tr.StartChild(ctx, "verdict.cache")
		b.SetAttr(String("result", "hit"))
		b.End()
		a.End()
		srv.SetAttr(Int("status", 200))
		srv.End()
	})
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"child span with 4 attributes", child, 2},
		{"3-span StartRemote segment to root End", seg, 9},
		{"Traceparent", tp, 1},
	} {
		if c.got > c.want {
			t.Errorf("%s: %.0f allocs, want <= %.0f", c.name, c.got, c.want)
		} else {
			t.Logf("%s: %.0f allocs (budget %.0f)", c.name, c.got, c.want)
		}
	}
}

// TestSealedSegmentIgnoresLateWrites: once a segment root ends, spans of
// that segment ended, attributed or started afterwards leave the published
// tree unchanged, while readers serve /debug/traces. Run under -race.
func TestSealedSegmentIgnoresLateWrites(t *testing.T) {
	tr := New(Options{Capacity: 8, SlowN: 2})
	ctx, root := tr.Start(context.Background(), "root")
	root.SetAttr(String("app_id", "1"))
	cctx, child := tr.Start(ctx, "child")
	child.SetAttr(Int("n", 1))
	_, open := tr.Start(cctx, "open")
	root.End()
	id := root.TraceID().String()
	want, ok := tr.Store().Trace(id)
	if !ok {
		t.Fatal("sealed segment not published")
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				tr.Store().Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?trace="+id, nil))
				if rec.Code != 200 {
					t.Errorf("GET /debug/traces?trace=: status %d", rec.Code)
					return
				}
				tr.Store().Snapshot(4)
			}
		}()
	}
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 200; i++ {
				for _, sp := range []*Span{root, child, open} {
					sp.SetAttr(Int("late", int64(i)), String("w", "x"), Bool("b", true), Int("i", 1), Int("overflow", 5))
					sp.SetError(errors.New("late"))
				}
				gctx, late := tr.StartChild(cctx, "late.child")
				late.SetAttr(Int("w", int64(w)))
				_, grand := tr.StartChild(gctx, "late.grandchild")
				if late.TraceID() != root.TraceID() || late.Traceparent() == "" {
					t.Error("a span started after the seal lost its trace context")
				}
				grand.End()
				late.End()
				open.End()
				child.End()
				root.End()
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	wg.Wait()

	got, _ := tr.Store().Trace(id)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("published tree changed after the seal:\n got %+v\nwant %+v", got, want)
	}
	if published, _ := tr.Store().Stats(); published != 1 {
		t.Fatalf("published = %d segments, want 1", published)
	}
	if n := len(want.Roots[0].Children[0].Children); n != 1 || !want.Roots[0].Children[0].Children[0].Unfinished {
		t.Fatalf("open span not rendered unfinished: %+v", want.Roots[0].Children[0])
	}
}

// sliceStore is the store as it was before segments were sealed: every
// publish copies rendered spans, appends the trace to a FIFO slice and
// stable-sorts the slow reservoir. TestStoreMatchesSliceAndSortOracle
// replays random publish sequences against it.
type sliceStore struct {
	capacity, slowN    int
	byID               map[TraceID]*sliceRecord
	recent, slowest    []*sliceRecord
	published, evicted uint64
}

type sliceRecord struct {
	id      TraceID
	spans   []FinishedSpan
	rootDur time.Duration
	hasRoot bool
}

func (st *sliceStore) publish(id TraceID, trueRoot bool, dur time.Duration, spans []FinishedSpan) {
	st.published++
	rec, ok := st.byID[id]
	if !ok {
		rec = &sliceRecord{id: id}
		st.byID[id] = rec
		st.recent = append(st.recent, rec)
	}
	rec.spans = append(rec.spans, spans...)
	switch {
	case trueRoot:
		rec.rootDur, rec.hasRoot = dur, true
	case !rec.hasRoot && dur > rec.rootDur:
		rec.rootDur = dur
	}
	if !contains(st.slowest, rec) {
		st.slowest = append(st.slowest, rec)
	}
	sort.SliceStable(st.slowest, func(i, j int) bool { return st.slowest[i].rootDur > st.slowest[j].rootDur })
	if len(st.slowest) > st.slowN {
		for _, dropped := range st.slowest[st.slowN:] {
			if !contains(st.recent, dropped) {
				delete(st.byID, dropped.id)
				st.evicted++
			}
		}
		st.slowest = st.slowest[:st.slowN]
	}
	for len(st.recent) > st.capacity {
		old := st.recent[0]
		st.recent = st.recent[1:]
		if !contains(st.slowest, old) {
			delete(st.byID, old.id)
			st.evicted++
		}
	}
}

func contains(recs []*sliceRecord, rec *sliceRecord) bool {
	for _, r := range recs {
		if r == rec {
			return true
		}
	}
	return false
}

func (st *sliceStore) snapshot(nRecent int) (recent, slowest []TraceJSON) {
	for i := len(st.recent) - 1; i >= 0 && len(recent) < nRecent; i-- {
		recent = append(recent, buildTree(st.recent[i].id, st.recent[i].spans))
	}
	for _, r := range st.slowest {
		slowest = append(slowest, buildTree(r.id, r.spans))
	}
	return recent, slowest
}

// plannedSpan is what the oracle driver knows about a span it made, from
// which it renders the span independently of the store.
type plannedSpan struct {
	sp         *Span
	parent     SpanID
	name       string
	start, end time.Time
	ended      bool
	remote     bool
	attrs      []Attr
	err        string
}

func (p plannedSpan) finished(sealedAt time.Time) FinishedSpan {
	end := p.end
	if !p.ended {
		end = sealedAt
	}
	fs := FinishedSpan{
		SpanID:     p.sp.SpanID().String(),
		Name:       p.name,
		Start:      p.start,
		Duration:   end.Sub(p.start),
		DurationMS: float64(end.Sub(p.start)) / float64(time.Millisecond),
		Error:      p.err,
		Remote:     p.remote,
		Unfinished: !p.ended,
	}
	if !p.parent.IsZero() {
		fs.ParentID = p.parent.String()
	}
	for _, a := range p.attrs {
		fs.Attrs = append(fs.Attrs, AttrJSON{Key: a.Key, Value: a.Value()})
	}
	return fs
}

// TestStoreMatchesSliceAndSortOracle replays seeded random publish
// sequences (true roots, remote segments of live, evicted and unknown
// traces, true roots that end after their remote segments, durations
// drawn from a small set so ties are common) into a Store and into
// sliceStore, and compares Len, Stats and every Snapshot after each
// publish.
func TestStoreMatchesSliceAndSortOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { replayAgainstOracle(t, seed) })
	}
}

func replayAgainstOracle(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	capacity, slowN := 1+rng.Intn(8), 1+rng.Intn(4)
	base := time.Unix(1_700_000_000, 0)
	var now time.Time
	tr := New(Options{Capacity: capacity, SlowN: slowN, Now: func() time.Time { return now }})
	oracle := &sliceStore{capacity: capacity, slowN: slowN, byID: map[TraceID]*sliceRecord{}}
	at := func() time.Time {
		return base.Add(time.Duration(rng.Intn(6)) * time.Millisecond)
	}

	// Root durations drift upwards, so later traces keep displacing the
	// reservoir's minimum; within a stretch of steps they tie often.
	trend := 0
	var open [][]plannedSpan // segments whose root has not ended yet
	var known []*Span        // spans a remote segment may continue
	seg := func(remoteOf *Span, orphan bool) []plannedSpan {
		now = at()
		var ctx context.Context
		var root *Span
		var parent SpanID
		remote := false
		switch {
		case remoteOf != nil:
			parent, remote = remoteOf.SpanID(), true
			ctx, root = tr.StartRemote(context.Background(), "http.server", remoteOf.Traceparent())
		case orphan:
			parent, remote = NewSpanID(), true
			ctx, root = tr.StartRemote(context.Background(), "http.server",
				"00-"+NewTraceID().String()+"-"+parent.String()+"-01")
		default:
			ctx, root = tr.Start(context.Background(), "root")
		}
		spans := []plannedSpan{{sp: root, parent: parent, name: root.name, start: now, remote: remote}}
		for c := rng.Intn(4); c > 0; c-- {
			par := spans[rng.Intn(len(spans))]
			now = at()
			_, sp := tr.StartChild(ContextWith(ctx, par.sp), fmt.Sprintf("child%d", c))
			ps := plannedSpan{sp: sp, parent: par.sp.SpanID(), name: sp.name, start: now}
			for a := rng.Intn(7); a > 0; a-- {
				attr := []Attr{String("s", "v"), Int("i", int64(a)), Float("f", 0.25), Bool("b", a%2 == 0)}[a%4]
				sp.SetAttr(attr)
				ps.attrs = append(ps.attrs, attr)
			}
			if rng.Intn(4) == 0 {
				sp.SetErrorString("boom")
				ps.err = "boom"
			}
			spans = append(spans, ps)
		}
		for i := 1; i < len(spans); i++ {
			if rng.Intn(5) != 0 {
				now = spans[i].start.Add(time.Duration(rng.Intn(4)) * time.Millisecond)
				spans[i].sp.End()
				spans[i].end, spans[i].ended = now, true
			}
			known = append(known, spans[i].sp)
		}
		known = append(known, root)
		return spans
	}
	end := func(planned []plannedSpan) {
		root := &planned[0]
		now = root.start.Add(time.Duration(trend+rng.Intn(4)) * time.Millisecond)
		root.sp.End()
		root.end, root.ended = now, true
		var spans []FinishedSpan
		for _, ps := range planned {
			spans = append(spans, ps.finished(now))
		}
		oracle.publish(root.sp.TraceID(), root.parent.IsZero() && !root.remote, root.end.Sub(root.start), spans)
	}

	for step := 0; step < 300; step++ {
		trend = step / 25
		switch op := rng.Intn(10); {
		case op < 3:
			end(seg(nil, false))
		case op < 5 && len(open) < 4:
			open = append(open, seg(nil, false))
		case op < 7 && len(open) > 0:
			i := rng.Intn(len(open))
			end(open[i])
			open = append(open[:i], open[i+1:]...)
		case op < 9 && len(known) > 0:
			// Mostly recent spans, so open roots get remote segments
			// before they end and re-rank their traces.
			end(seg(known[len(known)-1-rng.Intn(min(len(known), 8))], false))
		default:
			end(seg(nil, true))
		}
		st := tr.Store()
		if got, want := st.Len(), len(oracle.byID); got != want {
			t.Fatalf("step %d: Len = %d, oracle %d", step, got, want)
		}
		if p, e := st.Stats(); p != oracle.published || e != oracle.evicted {
			t.Fatalf("step %d: Stats = %d/%d, oracle %d/%d", step, p, e, oracle.published, oracle.evicted)
		}
		n := 1 + rng.Intn(capacity+1)
		gotRecent, gotSlow := st.Snapshot(n)
		wantRecent, wantSlow := oracle.snapshot(n)
		if !reflect.DeepEqual(gotRecent, wantRecent) {
			t.Fatalf("step %d: recent differs from the oracle:\n got %s\nwant %s", step, ids(gotRecent), ids(wantRecent))
		}
		if !reflect.DeepEqual(gotSlow, wantSlow) {
			t.Fatalf("step %d: slowest differs from the oracle:\n got %s\nwant %s", step, ids(gotSlow), ids(wantSlow))
		}
	}
}

func ids(ts []TraceJSON) string {
	s := ""
	for _, t := range ts {
		s += fmt.Sprintf(" %s…(%gms,%d spans)", t.TraceID[:6], t.DurationMS, t.Spans)
	}
	return s
}
