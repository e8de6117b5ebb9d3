package mypagekeeper

import "sort"

// idRange is a closed range [lo, hi] of subscribed user IDs. Closed rather
// than half-open so that math.MaxInt is as subscribable as any other ID.
type idRange struct{ lo, hi int }

// subscriberSet is an immutable, sorted list of disjoint, non-adjacent
// ranges. Every post consults it, so it is read without a lock through the
// Monitor's atomic pointer; writers build a merged copy and swap it in.
type subscriberSet []idRange

// contains reports whether id lies in one of the ranges: a binary search
// that takes no lock and does not allocate.
func (s subscriberSet) contains(id int) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i].hi >= id })
	return i < len(s) && s[i].lo <= id
}

// with returns a copy of s with the closed range [lo, hi] (lo <= hi)
// merged in: ranges that overlap it or touch it are folded into one. The
// comparisons are ordered so that no ±1 can overflow at the ends of int.
func (s subscriberSet) with(lo, hi int) subscriberSet {
	out := make(subscriberSet, 0, len(s)+1)
	i := 0
	// Ranges that end before lo-1 stay as they are (r.hi < lo guards r.hi+1).
	for ; i < len(s) && s[i].hi < lo && s[i].hi+1 < lo; i++ {
		out = append(out, s[i])
	}
	// Ranges that start by hi+1 overlap or touch [lo, hi] (r.lo > hi guards r.lo-1).
	for ; i < len(s) && !(s[i].lo > hi && s[i].lo-1 > hi); i++ {
		lo, hi = min(lo, s[i].lo), max(hi, s[i].hi)
	}
	out = append(out, idRange{lo, hi})
	return append(out, s[i:]...)
}

// size is the number of IDs in the set.
func (s subscriberSet) size() int {
	n := 0
	for _, r := range s {
		n += r.hi - r.lo + 1
	}
	return n
}

// Subscribe registers a user wall for monitoring.
func (m *Monitor) Subscribe(userID int) { m.subscribe(userID, userID) }

// SubscribeRange subscribes users [lo, hi); an empty or reversed range is a
// no-op. Each call copies the range list, which stays one range long when
// a population is subscribed as a block, so subscribe a block with one
// call rather than one ID at a time.
func (m *Monitor) SubscribeRange(lo, hi int) {
	if lo < hi {
		m.subscribe(lo, hi-1)
	}
}

// subscribe merges the closed range [lo, hi] into the set. subMu only
// orders writers; observeSeq reads whichever list is current.
func (m *Monitor) subscribe(lo, hi int) {
	m.subMu.Lock()
	defer m.subMu.Unlock()
	next := m.subscribers.Load().with(lo, hi)
	m.subscribers.Store(&next)
}

// NumSubscribers reports the monitored population size.
func (m *Monitor) NumSubscribers() int { return m.subscribers.Load().size() }

// subscribed reports whether userID's wall is monitored.
func (m *Monitor) subscribed(userID int) bool { return m.subscribers.Load().contains(userID) }
