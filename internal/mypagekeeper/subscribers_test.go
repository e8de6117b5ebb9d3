package mypagekeeper

import (
	"math"
	"sync"
	"testing"

	"frappe/internal/fbplatform"
)

// subOp is one subscription call: Subscribe(lo) when single, else
// SubscribeRange(lo, hi).
type subOp struct {
	lo, hi int
	single bool
}

// TestSubscriberSetMatchesMapOracle replays sequences of Subscribe and
// SubscribeRange calls into a monitor and into a map, and checks that
// membership around every endpoint and NumSubscribers agree after each
// call, and that the ranges stay sorted, disjoint and non-adjacent.
func TestSubscriberSetMatchesMapOracle(t *testing.T) {
	const maxInt, minInt = math.MaxInt, math.MinInt
	cases := []struct {
		name string
		ops  []subOp
	}{
		{"single IDs", []subOp{{lo: 5, single: true}, {lo: 3, single: true}, {lo: 4, single: true}, {lo: 5, single: true}}},
		{"overlapping", []subOp{{lo: 0, hi: 10}, {lo: 5, hi: 15}, {lo: -3, hi: 2}, {lo: 1, hi: 14}}},
		{"adjacent", []subOp{{lo: 0, hi: 10}, {lo: 10, hi: 20}, {lo: -5, hi: 0}, {lo: 30, hi: 40}, {lo: 20, hi: 30}}},
		{"gap of one", []subOp{{lo: 0, hi: 10}, {lo: 11, hi: 20}, {lo: 10, single: true}}},
		{"empty and reversed", []subOp{{lo: 7, hi: 7}, {lo: 9, hi: 2}, {lo: 0, hi: 3}, {lo: 3, hi: 3}}},
		{"negative IDs", []subOp{{lo: -100, hi: -90}, {lo: -1, single: true}, {lo: -89, hi: 0}, {lo: -95, hi: -91}}},
		{"swallowing", []subOp{{lo: 2, hi: 4}, {lo: 6, hi: 8}, {lo: 10, hi: 12}, {lo: 0, hi: 20}}},
		{"out of order", []subOp{{lo: 50, hi: 60}, {lo: 10, hi: 20}, {lo: 30, hi: 40}, {lo: 20, hi: 30}, {lo: 41, single: true}}},
		{"near MaxInt", []subOp{{lo: maxInt, single: true}, {lo: maxInt - 5, hi: maxInt - 1}, {lo: maxInt - 1, single: true}, {lo: maxInt - 9, hi: maxInt}}},
		{"near MinInt", []subOp{{lo: minInt, single: true}, {lo: minInt + 2, hi: minInt + 5}, {lo: minInt + 1, single: true}, {lo: minInt, hi: minInt + 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := New(DefaultClassifierConfig())
			oracle := map[int]bool{}
			var probes []int
			for i, op := range tc.ops {
				if op.single {
					m.Subscribe(op.lo)
					oracle[op.lo] = true
					probes = append(probes, around(op.lo)...)
				} else {
					m.SubscribeRange(op.lo, op.hi)
					for u := op.lo; u < op.hi; u++ {
						oracle[u] = true
					}
					probes = append(probes, around(op.lo)...)
					probes = append(probes, around(op.hi)...)
				}
				for _, id := range probes {
					if got := m.subscribed(id); got != oracle[id] {
						t.Fatalf("after op %d: subscribed(%d) = %v, want %v", i, id, got, oracle[id])
					}
				}
				if got := m.NumSubscribers(); got != len(oracle) {
					t.Fatalf("after op %d: NumSubscribers = %d, want %d", i, got, len(oracle))
				}
				set := *m.subscribers.Load()
				for j, r := range set {
					if r.lo > r.hi || (j > 0 && set[j-1].hi >= r.lo-1) {
						t.Fatalf("after op %d: ranges %v are not sorted, disjoint and non-adjacent", i, set)
					}
				}
			}
		})
	}
}

// around returns the IDs within 2 of id that int can hold.
func around(id int) []int {
	var out []int
	for d := -2; d <= 2; d++ {
		if (d < 0 && id < math.MinInt-d) || (d > 0 && id > math.MaxInt-d) {
			continue
		}
		out = append(out, id+d)
	}
	return out
}

// TestSubscribeWhileIngesting subscribes new walls while a queued ingestion
// session observes posts (run it under -race): posts by users subscribed
// before the session are always counted, posts by the others only once
// their range is in, and the set ends exact.
func TestSubscribeWhileIngesting(t *testing.T) {
	m := New(DefaultClassifierConfig())
	m.SubscribeRange(0, 100)
	ing := m.StartIngest(2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for lo := 100; lo < 1000; lo += 10 {
			m.SubscribeRange(lo, lo+10)
			m.NumSubscribers()
		}
	}()
	for i := 0; i < 5000; i++ {
		ing.Observe(fbplatform.Post{AppID: "app", UserID: i % 1000, Message: "hello", Link: "http://x.example/" + string(rune('a'+i%26))})
	}
	wg.Wait()
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if got := m.NumSubscribers(); got != 1000 {
		t.Errorf("NumSubscribers = %d, want 1000", got)
	}
	if got := m.Stats().PostsObserved; got < 500 || got > 5000 {
		t.Errorf("PostsObserved = %d, want between the 500 posts of early subscribers and all 5000", got)
	}
}
