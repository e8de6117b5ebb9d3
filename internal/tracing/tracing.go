// Package tracing is the repo's stdlib-only request-tracing layer: one
// trace follows a /check verdict from the watchdog HTTP handler through
// verdict-cache lookup, singleflight, the graph/WOT crawls (every httpx
// retry attempt and breaker decision included), feature extraction, and
// SVM inference — across the loopback services in internal/stack, via
// W3C `traceparent` headers.
//
// Where internal/telemetry answers "how often and how long in aggregate",
// tracing answers "which request, through which path, stalled where": the
// per-request causality Facebook Inspector (Dewan & Kumaraguru) argues a
// real-time malicious-post service needs to hold its 99th percentile.
//
// Design points, in the spirit of the rest of the repo:
//
//   - stdlib-only; no OpenTelemetry dependency. The ID wire format is W3C
//     trace-context (version 00) so the headers interoperate anyway.
//   - cheap on the request path: typed attributes (no interface{}
//     boxing), the first four held inline in the span; a span is one
//     allocation plus its context; ID generation is an atomic splitmix64
//     step — no locks, no crypto/rand per span. A segment root's End
//     seals its segment and hands it to the store as is; the store renders
//     spans (hex ids, attribute strings) only when /debug/traces is read.
//   - monotonic timings: span durations come from time.Time's monotonic
//     reading, immune to wall-clock steps.
//   - bounded memory: finished traces land in a ring buffer with an
//     always-keep-slowest reservoir (see store.go); nothing grows without
//     bound under sustained traffic.
//
// Spans are nil-safe: every method works on a nil *Span, so call sites
// do not need "is tracing on?" checks.
package tracing

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is the 16-byte W3C trace id shared by every span of one request.
type TraceID [16]byte

// SpanID is the 8-byte W3C id of one span.
type SpanID [8]byte

// IsZero reports whether the id is the invalid all-zero id.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the id is the invalid all-zero id.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String returns the 32-char lowercase hex form used on the wire.
func (t TraceID) String() string {
	var b [32]byte
	hex.Encode(b[:], t[:])
	return string(b[:])
}

// String returns the 16-char lowercase hex form used on the wire.
func (s SpanID) String() string {
	var b [16]byte
	hex.Encode(b[:], s[:])
	return string(b[:])
}

// ParseTraceID parses the 32-char hex form. The zero id is invalid.
func ParseTraceID(s string) (TraceID, bool) {
	var t TraceID
	if len(s) != 32 {
		return t, false
	}
	if _, err := hex.Decode(t[:], []byte(s)); err != nil || t.IsZero() {
		return TraceID{}, false
	}
	return t, true
}

// ParseSpanID parses the 16-char hex form. The zero id is invalid.
func ParseSpanID(s string) (SpanID, bool) {
	var id SpanID
	if len(s) != 16 {
		return id, false
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil || id.IsZero() {
		return SpanID{}, false
	}
	return id, true
}

// idState is the process-wide ID generator: a crypto-seeded counter whose
// values are finalised with the splitmix64 mixer. One atomic add per
// 8 bytes of id, no locks, and the crypto seed keeps ids unpredictable
// across processes.
var idState atomic.Uint64

func init() {
	var seed [8]byte
	if _, err := cryptorand.Read(seed[:]); err == nil {
		idState.Store(binary.LittleEndian.Uint64(seed[:]))
	} else {
		// Degraded but functional: ids stay unique within the process.
		idState.Store(uint64(time.Now().UnixNano()))
	}
}

// nextID returns the next mixed 64-bit id word.
func nextID() uint64 {
	x := idState.Add(0x9E3779B97F4A7C15) // golden-ratio increment
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// NewTraceID returns a fresh non-zero trace id.
func NewTraceID() TraceID {
	var t TraceID
	for t.IsZero() {
		binary.BigEndian.PutUint64(t[:8], nextID())
		binary.BigEndian.PutUint64(t[8:], nextID())
	}
	return t
}

// NewSpanID returns a fresh non-zero span id.
func NewSpanID() SpanID {
	var s SpanID
	for s.IsZero() {
		binary.BigEndian.PutUint64(s[:], nextID())
	}
	return s
}

// ---------------------------------------------------------------- attributes

// attrKind discriminates Attr payloads.
type attrKind uint8

const (
	kindString attrKind = iota
	kindInt
	kindFloat
	kindBool
)

// Attr is one typed span attribute. Values are held unboxed (no
// interface{}): a string plus one number word cover every kind.
type Attr struct {
	Key  string
	kind attrKind
	str  string
	num  uint64 // int64 bits, float64 bits, or 0/1 for bool
}

// String builds a string attribute.
func String(key, value string) Attr { return Attr{Key: key, kind: kindString, str: value} }

// Int builds an int64 attribute.
func Int(key string, value int64) Attr { return Attr{Key: key, kind: kindInt, num: uint64(value)} }

// Float builds a float64 attribute.
func Float(key string, value float64) Attr {
	return Attr{Key: key, kind: kindFloat, num: math.Float64bits(value)}
}

// Bool builds a bool attribute.
func Bool(key string, value bool) Attr {
	a := Attr{Key: key, kind: kindBool}
	if value {
		a.num = 1
	}
	return a
}

// Duration builds a duration attribute, rendered as a string ("34ms").
func Duration(key string, d time.Duration) Attr { return String(key, d.String()) }

// Value returns the attribute's value rendered as a string (the store's
// JSON form keeps values as strings so the schema is stable).
func (a Attr) Value() string {
	switch a.kind {
	case kindInt:
		return strconv.FormatInt(int64(a.num), 10)
	case kindFloat:
		return strconv.FormatFloat(math.Float64frombits(a.num), 'g', -1, 64)
	case kindBool:
		if a.num == 1 {
			return "true"
		}
		return "false"
	default:
		return a.str
	}
}

// --------------------------------------------------------------------- spans

// Span is one timed operation in a trace. A nil *Span is a valid no-op:
// every method checks the receiver, so uninstrumented or untraced paths
// pay one nil check and nothing else.
type Span struct {
	seg      *segment
	spanID   SpanID
	parentID SpanID
	name     string
	start    time.Time // carries the monotonic reading
	remote   bool      // continues a parent from another process/segment

	// Guarded by seg.mu and frozen once the segment is sealed.
	next  *Span   // the segment's next span, in creation order
	attrs [4]Attr // the first four attributes, inline
	nattr int
	more  []Attr // attributes past the fourth
	errs  string
	end   time.Time
	ended bool
}

// TraceID returns the owning trace's id (zero for a nil span).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.seg.id
}

// SpanID returns this span's id (zero for a nil span).
func (s *Span) SpanID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.spanID
}

// SetAttr appends attributes to the span.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.seg.mu.Lock()
	if !s.seg.sealed {
		n := copy(s.attrs[s.nattr:], attrs)
		s.nattr += n
		s.more = append(s.more, attrs[n:]...)
	}
	s.seg.mu.Unlock()
}

// SetError records an error on the span; the span's status becomes the
// error text. A nil err is ignored.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.SetErrorString(err.Error())
}

// SetErrorString records an error status directly.
func (s *Span) SetErrorString(msg string) {
	if s == nil || msg == "" {
		return
	}
	s.seg.mu.Lock()
	if !s.seg.sealed {
		s.errs = msg
	}
	s.seg.mu.Unlock()
}

// End finishes the span. Ending twice is a no-op. When the span is its
// trace segment's root, End seals the segment and publishes it to the
// tracer's store.
func (s *Span) End() {
	if s == nil {
		return
	}
	seg := s.seg
	now := seg.tracer.now()
	seg.mu.Lock()
	if s.ended || seg.sealed {
		seg.mu.Unlock()
		return
	}
	s.ended, s.end = true, now
	seal := s == seg.root
	if seal {
		seg.sealed = true
	}
	seg.mu.Unlock()
	if seal {
		seg.tracer.store.publish(seg)
	}
}

// ----------------------------------------------------------------- segments

// segment is one local trace segment: the spans created in this process
// between a segment root (a server span or a local root) and that root's
// End. The root's End seals it: later attributes, errors, ends and child
// spans are dropped, so the published segment never changes again and
// the store renders it at read time without a lock.
type segment struct {
	tracer *Tracer
	id     TraceID
	root   *Span

	mu     sync.Mutex
	last   *Span // newest span; root.next links the rest in creation order
	sealed bool

	next *segment // the trace record's next segment, guarded by Store.mu
}

// newSegment starts a segment whose root span continues parent (zero for
// a true root).
func (t *Tracer) newSegment(id TraceID, name string, parent SpanID, remote bool) *Span {
	seg := &segment{tracer: t, id: id}
	seg.root = seg.span(name, parent, remote)
	seg.last = seg.root
	return seg.root
}

// span builds a span of seg without linking it in.
func (seg *segment) span(name string, parent SpanID, remote bool) *Span {
	return &Span{
		seg:      seg,
		spanID:   NewSpanID(),
		parentID: parent,
		name:     name,
		start:    seg.tracer.now(),
		remote:   remote,
	}
}

// child starts a child of parent in parent's segment. A child started
// after the seal still gets ids (its context propagates) but is not part
// of the published segment.
func (parent *Span) child(name string) *Span {
	seg := parent.seg
	s := seg.span(name, parent.spanID, false)
	seg.mu.Lock()
	if !seg.sealed {
		seg.last.next = s
		seg.last = s
	}
	seg.mu.Unlock()
	return s
}

// render appends the sealed segment's spans in creation order. Spans still
// open at the seal are unfinished, measured to the root's end.
func (seg *segment) render(out []FinishedSpan) []FinishedSpan {
	sealedAt := seg.root.end
	for sp := seg.root; sp != nil; sp = sp.next {
		end, unfinished := sp.end, !sp.ended
		if unfinished {
			end = sealedAt
		}
		fs := FinishedSpan{
			SpanID:     sp.spanID.String(),
			Name:       sp.name,
			Start:      sp.start,
			Duration:   end.Sub(sp.start),
			DurationMS: durationMS(end.Sub(sp.start)),
			Error:      sp.errs,
			Remote:     sp.remote,
			Unfinished: unfinished,
		}
		if !sp.parentID.IsZero() {
			fs.ParentID = sp.parentID.String()
		}
		if n := sp.nattr + len(sp.more); n > 0 {
			fs.Attrs = make([]AttrJSON, 0, n)
			for _, a := range sp.attrs[:sp.nattr] {
				fs.Attrs = append(fs.Attrs, AttrJSON{Key: a.Key, Value: a.Value()})
			}
			for _, a := range sp.more {
				fs.Attrs = append(fs.Attrs, AttrJSON{Key: a.Key, Value: a.Value()})
			}
		}
		out = append(out, fs)
	}
	return out
}

// ------------------------------------------------------------------- tracer

// Tracer creates spans and owns the store finished traces land in.
type Tracer struct {
	store   *Store
	now     func() time.Time
	enabled atomic.Bool
}

// Options configures a Tracer.
type Options struct {
	// Capacity bounds the store's recent-trace ring (default 512).
	Capacity int
	// SlowN is how many slowest traces are always retained regardless of
	// ring eviction (default 32).
	SlowN int
	// Now is a test seam for the span clock (nil = time.Now).
	Now func() time.Time
}

// New returns a Tracer with its own Store.
func New(o Options) *Tracer {
	if o.Capacity <= 0 {
		o.Capacity = 512
	}
	if o.SlowN <= 0 {
		o.SlowN = 32
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	t := &Tracer{store: newStore(o.Capacity, o.SlowN), now: o.Now}
	t.enabled.Store(true)
	return t
}

var (
	defaultOnce   sync.Once
	defaultTracer *Tracer
)

// Default returns the process-wide tracer every instrumented layer
// (telemetry middleware, httpx, crawler, watchdog) records into unless
// handed an explicit one. Its store backs /debug/traces.
func Default() *Tracer {
	defaultOnce.Do(func() { defaultTracer = New(Options{}) })
	return defaultTracer
}

// Store returns the tracer's finished-trace store.
func (t *Tracer) Store() *Store { return t.store }

// SetEnabled turns span creation on or off process-wide. Disabled tracers
// return nil spans everywhere (all methods on which are no-ops).
func (t *Tracer) SetEnabled(v bool) { t.enabled.Store(v) }

// Enabled reports whether the tracer creates spans.
func (t *Tracer) Enabled() bool { return t.enabled.Load() }

// ctxKey keys the current span in a context.
type ctxKey struct{}

// ContextWith returns ctx carrying span as the current span.
func ContextWith(ctx context.Context, span *Span) context.Context {
	if span == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, span)
}

// FromContext returns the current span, or nil.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// TraceIDFrom returns the current trace id's hex form, or "".
func TraceIDFrom(ctx context.Context) string {
	if s := FromContext(ctx); s != nil {
		return s.seg.id.String()
	}
	return ""
}

// Start begins a span: a child of the context's current span when one
// exists, otherwise the root of a new trace. The returned context carries
// the new span. With tracing disabled both returns are pass-throughs.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil || !t.enabled.Load() {
		return ctx, nil
	}
	if parent := FromContext(ctx); parent != nil {
		s := parent.child(name)
		return ContextWith(ctx, s), s
	}
	s := t.newSegment(NewTraceID(), name, SpanID{}, false)
	return ContextWith(ctx, s), s
}

// StartChild begins a span only when the context already carries a trace;
// otherwise it is a no-op (nil span, same context). This is what the
// shared layers (httpx, crawler) use so that untraced bulk work — dataset
// builds, experiment crawls — does not mint a root trace per fetch.
func (t *Tracer) StartChild(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil || !t.enabled.Load() {
		return ctx, nil
	}
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	s := parent.child(name)
	return ContextWith(ctx, s), s
}

// StartRemote begins a server-side span continuing the trace described by
// a W3C traceparent header value. An empty or malformed header starts a
// fresh root trace instead, so the instrumented server always has a span.
func (t *Tracer) StartRemote(ctx context.Context, name, traceparent string) (context.Context, *Span) {
	if t == nil || !t.enabled.Load() {
		return ctx, nil
	}
	var s *Span
	if tid, sid, ok := ParseTraceparent(traceparent); ok {
		s = t.newSegment(tid, name, sid, true)
	} else {
		s = t.newSegment(NewTraceID(), name, SpanID{}, false)
	}
	return ContextWith(ctx, s), s
}

// ------------------------------------------------------------- traceparent

// TraceparentHeader is the W3C trace-context header name.
const TraceparentHeader = "traceparent"

// Traceparent renders the span as a W3C traceparent value
// ("00-<trace-id>-<span-id>-01"); "" for a nil span.
func (s *Span) Traceparent() string {
	if s == nil {
		return ""
	}
	var b [55]byte
	copy(b[:], "00-")
	hex.Encode(b[3:35], s.seg.id[:])
	b[35] = '-'
	hex.Encode(b[36:52], s.spanID[:])
	copy(b[52:], "-01")
	return string(b[:])
}

// ParseTraceparent parses a W3C traceparent value. Only version 00 with
// valid non-zero ids is accepted.
func ParseTraceparent(v string) (TraceID, SpanID, bool) {
	// 00-{32 hex}-{16 hex}-{2 hex}
	if len(v) != 55 || v[0] != '0' || v[1] != '0' || v[2] != '-' || v[35] != '-' || v[52] != '-' {
		return TraceID{}, SpanID{}, false
	}
	tid, ok := ParseTraceID(v[3:35])
	if !ok {
		return TraceID{}, SpanID{}, false
	}
	sid, ok := ParseSpanID(v[36:52])
	if !ok {
		return TraceID{}, SpanID{}, false
	}
	if !isHex(v[53]) || !isHex(v[54]) {
		return TraceID{}, SpanID{}, false
	}
	return tid, sid, true
}

func isHex(c byte) bool {
	return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}
