package core

import "slices"

// entryBefore is the ranking order: ascending score (smaller = more
// outlying), vertex ID breaking score ties. Candidates are unique per
// query, so this is a strict total order — every selection below is fully
// deterministic regardless of push or merge order.
func entryBefore(a, b Entry) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Vertex < b.Vertex
}

// topSelector retains the best k entries under entryBefore without holding
// the full candidate set: a bounded binary max-heap whose root is the worst
// retained entry, making selection O(n log k) against the old full
// sort.Slice+truncate's O(n log n) — and letting scoreRange drop every
// chunk's vectors as soon as it is scored.
// k <= 0 means unbounded (the query has no TOP clause): entries are simply
// collected and sorted at the end.
type topSelector struct {
	k       int
	entries []Entry // max-heap ordered when bounded and full; plain slice otherwise
}

func newTopSelector(k int) *topSelector {
	s := &topSelector{k: k}
	if k > 0 {
		// The heap grows with what is pushed: a TOP far past |Sc| reserves
		// nothing it will not fill.
		s.entries = make([]Entry, 0, min(k, parallelChunk))
	}
	return s
}

// admits is push's rule: e is kept while there is room, and once the heap
// is full only if it ranks strictly ahead of the root, the worst entry kept.
func (s *topSelector) admits(e Entry) bool {
	return s.k <= 0 || len(s.entries) < s.k || entryBefore(e, s.entries[0])
}

// push offers one entry to the selection: admitted, it is appended while
// there is room and replaces the root once the heap is full.
func (s *topSelector) push(e Entry) {
	switch {
	case !s.admits(e):
	case s.k <= 0:
		s.entries = append(s.entries, e)
	case len(s.entries) < s.k:
		s.entries = append(s.entries, e)
		s.up(len(s.entries) - 1)
	default:
		s.entries[0] = e
		s.down(0)
	}
}

// ranked returns the retained entries most outlying first, consuming the
// selector.
func (s *topSelector) ranked() []Entry {
	slices.SortFunc(s.entries, func(a, b Entry) int {
		if entryBefore(a, b) {
			return -1
		}
		return 1 // entries are distinct: b is before a
	})
	return s.entries
}

// mergeRanked is the deterministic merge of a query's candidate ranges:
// lists are per-range rankings, and the result is the global top k under
// entryBefore — literally what one selector over all candidates keeps, since
// every member of the global top k is in its own range's top k. k <= 0 merges
// everything; an empty merge is nil.
func mergeRanked(lists [][]Entry, k int) []Entry {
	sel := newTopSelector(k)
	for _, l := range lists {
		for _, e := range l {
			sel.push(e)
		}
	}
	if len(sel.entries) == 0 {
		return nil
	}
	return sel.ranked()
}

// up restores the max-heap property from leaf i toward the root (a parent
// must never rank ahead of its children: the worst entry bubbles to the top).
func (s *topSelector) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !entryBefore(s.entries[p], s.entries[i]) {
			return
		}
		s.entries[p], s.entries[i] = s.entries[i], s.entries[p]
		i = p
	}
}

// down restores the max-heap property from i toward the leaves.
func (s *topSelector) down(i int) {
	n := len(s.entries)
	for {
		worst := i
		if l := 2*i + 1; l < n && entryBefore(s.entries[worst], s.entries[l]) {
			worst = l
		}
		if r := 2*i + 2; r < n && entryBefore(s.entries[worst], s.entries[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		s.entries[i], s.entries[worst] = s.entries[worst], s.entries[i]
		i = worst
	}
}
