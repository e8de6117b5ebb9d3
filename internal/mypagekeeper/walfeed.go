package mypagekeeper

// This file is the bridge between the monitor and the ingestion WAL
// (internal/wal): a deterministic binary codec for ingestion events and
// the serial replay that rebuilds a monitor from the log.
//
// The codec is hand-rolled varint framing rather than gob/JSON on
// purpose: replay equivalence is proved byte-for-byte against the serial
// monitor, so the encoding must be a pure function of the event — no
// per-stream type headers, no map iteration order, no float formatting.
// One WAL record holds exactly one event.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"frappe/internal/fbplatform"
	"frappe/internal/wal"
)

// EventKind discriminates WAL ingestion records.
type EventKind byte

const (
	// KindPost is one post streamed through the monitor.
	KindPost EventKind = 1
	// KindBlacklistURL is a URL-granularity blacklist add. Every add call
	// is logged, including idempotent re-adds — the log is the exact call
	// stream, which is what lets a resume match it record by record.
	KindBlacklistURL EventKind = 2
	// KindBlacklistDomain is a domain-granularity blacklist add.
	KindBlacklistDomain EventKind = 3
	// KindInstall is a user installing an app (the churn dimension the
	// monitor itself does not track; consumers like the retrainer can).
	KindInstall EventKind = 4
	// KindRemoval is a user removing an app.
	KindRemoval EventKind = 5
)

// WALEvent is one decoded ingestion event.
type WALEvent struct {
	Kind EventKind
	// Post is set for KindPost.
	Post fbplatform.Post
	// Value is the URL (KindBlacklistURL) or domain (KindBlacklistDomain).
	Value string
	// AppID and UserID are set for KindInstall / KindRemoval.
	AppID  string
	UserID int
}

// ErrBadEvent wraps every event-decoding failure.
var ErrBadEvent = errors.New("mypagekeeper: undecodable WAL event")

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendEvent appends ev's encoding to dst and returns the result. The
// encoding is deterministic: equal events encode to equal bytes.
func AppendEvent(dst []byte, ev WALEvent) ([]byte, error) {
	dst = append(dst, byte(ev.Kind))
	switch ev.Kind {
	case KindPost:
		p := ev.Post
		if p.UserID < 0 || p.Month < 0 || p.Likes < 0 {
			return nil, fmt.Errorf("mypagekeeper: negative post field (user %d month %d likes %d)",
				p.UserID, p.Month, p.Likes)
		}
		dst = appendString(dst, p.AppID)
		dst = appendString(dst, p.SourceAppID)
		dst = binary.AppendUvarint(dst, uint64(p.UserID))
		dst = appendString(dst, p.Message)
		dst = appendString(dst, p.Link)
		dst = binary.AppendUvarint(dst, uint64(p.Month))
		dst = binary.AppendUvarint(dst, uint64(p.Likes))
		var mal byte
		if p.MaliciousLink {
			mal = 1
		}
		dst = append(dst, mal)
	case KindBlacklistURL, KindBlacklistDomain:
		dst = appendString(dst, ev.Value)
	case KindInstall, KindRemoval:
		if ev.UserID < 0 {
			return nil, fmt.Errorf("mypagekeeper: negative user ID %d", ev.UserID)
		}
		dst = appendString(dst, ev.AppID)
		dst = binary.AppendUvarint(dst, uint64(ev.UserID))
	default:
		return nil, fmt.Errorf("mypagekeeper: unknown event kind %d", ev.Kind)
	}
	return dst, nil
}

// eventReader decodes primitives with bounds checking.
type eventReader struct{ rest []byte }

func (r *eventReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.rest)
	if n <= 0 {
		return 0, ErrBadEvent
	}
	r.rest = r.rest[n:]
	return v, nil
}

func (r *eventReader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil || n > uint64(len(r.rest)) {
		return "", ErrBadEvent
	}
	s := string(r.rest[:n])
	r.rest = r.rest[n:]
	return s, nil
}

func (r *eventReader) byte() (byte, error) {
	if len(r.rest) == 0 {
		return 0, ErrBadEvent
	}
	b := r.rest[0]
	r.rest = r.rest[1:]
	return b, nil
}

// DecodeEvent decodes one event. Trailing bytes are an error: a record
// holds exactly one event.
func DecodeEvent(data []byte) (WALEvent, error) {
	r := &eventReader{rest: data}
	kind, err := r.byte()
	if err != nil {
		return WALEvent{}, err
	}
	ev := WALEvent{Kind: EventKind(kind)}
	switch ev.Kind {
	case KindPost:
		var p fbplatform.Post
		var user, month, likes uint64
		var mal byte
		steps := []func() error{
			func() (e error) { p.AppID, e = r.str(); return },
			func() (e error) { p.SourceAppID, e = r.str(); return },
			func() (e error) { user, e = r.uvarint(); return },
			func() (e error) { p.Message, e = r.str(); return },
			func() (e error) { p.Link, e = r.str(); return },
			func() (e error) { month, e = r.uvarint(); return },
			func() (e error) { likes, e = r.uvarint(); return },
			func() (e error) { mal, e = r.byte(); return },
		}
		for _, step := range steps {
			if err := step(); err != nil {
				return WALEvent{}, err
			}
		}
		p.UserID, p.Month, p.Likes = int(user), int(month), int(likes)
		p.MaliciousLink = mal == 1
		ev.Post = p
	case KindBlacklistURL, KindBlacklistDomain:
		if ev.Value, err = r.str(); err != nil {
			return WALEvent{}, err
		}
	case KindInstall, KindRemoval:
		var user uint64
		if ev.AppID, err = r.str(); err != nil {
			return WALEvent{}, err
		}
		if user, err = r.uvarint(); err != nil {
			return WALEvent{}, err
		}
		ev.UserID = int(user)
	default:
		return WALEvent{}, fmt.Errorf("%w: kind %d", ErrBadEvent, kind)
	}
	if len(r.rest) != 0 {
		return WALEvent{}, fmt.Errorf("%w: %d trailing bytes", ErrBadEvent, len(r.rest))
	}
	return ev, nil
}

// ReplayStats summarises one replay pass.
type ReplayStats struct {
	// Records is the number of WAL records applied.
	Records uint64
	// Posts, Blacklists and Installs break Records down by kind
	// (Installs counts removals too).
	Posts      uint64
	Blacklists uint64
	Installs   uint64
	// Next is the record index replay stopped at — the offset a consumer
	// commits after fully processing the replayed view.
	Next uint64
}

// Replay applies the log's events from record index `from` serially into
// the monitor, exactly as the original serial stream would have: posts via
// Observe, blacklist adds via AddBlacklisted*. The resulting monitor state
// is byte-identical to one that observed the original stream (see the
// determinism suites). Install/removal events are handed to installs when
// non-nil and skipped otherwise — the monitor keeps no per-user install
// state.
func Replay(m *Monitor, log *wal.Log, from uint64, installs func(appID string, userID int, removed bool)) (ReplayStats, error) {
	r, err := log.Reader(from)
	if err != nil {
		return ReplayStats{Next: from}, err
	}
	defer r.Close()
	stats := ReplayStats{Next: from}
	for {
		payload, idx, err := r.Next()
		if errors.Is(err, io.EOF) {
			return stats, nil
		}
		if err != nil {
			return stats, fmt.Errorf("mypagekeeper: replaying record %d: %w", stats.Next, err)
		}
		ev, err := DecodeEvent(payload)
		if err != nil {
			return stats, fmt.Errorf("mypagekeeper: replaying record %d: %w", idx, err)
		}
		switch ev.Kind {
		case KindPost:
			m.Observe(ev.Post)
			stats.Posts++
		case KindBlacklistURL:
			m.AddBlacklistedURL(ev.Value)
			stats.Blacklists++
		case KindBlacklistDomain:
			m.AddBlacklistedDomain(ev.Value)
			stats.Blacklists++
		case KindInstall, KindRemoval:
			if installs != nil {
				installs(ev.AppID, ev.UserID, ev.Kind == KindRemoval)
			}
			stats.Installs++
		}
		stats.Records++
		stats.Next = idx + 1
	}
}
