package shb

import (
	"math"
	"sync"
)

// frontierEntry is one single-flight slot of the reachability index: the
// first query for its (segment, edge-suffix) computes the frontier inside
// once, every later query takes the sync.Once fast path (one atomic load)
// and shares the immutable slice.
type frontierEntry struct {
	once sync.Once
	f    []int
}

// buildReachIndex allocates the dense frontier index once the graph is
// complete: reach[seg] holds len(out[seg])+1 entries, one per suffix of
// the segment's sorted out-edge list (index len(out[seg]) is the empty
// suffix). Every entry lives in one backing array, so the index costs two
// allocations and a lookup needs no lock and no hashing.
func (g *Graph) buildReachIndex() {
	total := 0
	for _, es := range g.out {
		total += len(es) + 1
	}
	slots := make([]frontierEntry, total)
	g.reach = make([][]frontierEntry, len(g.out))
	off := 0
	for seg, es := range g.out {
		n := len(es) + 1
		g.reach[seg] = slots[off : off+n : off+n]
		off += n
	}
}

// HappensBefore reports whether node x happens before node y. Within a
// segment this is the constant-time integer comparison of the paper's
// first optimization; across segments it is reachability over the
// inter-origin edges, with the frontier cached per (segment, edge-suffix).
// Safe for concurrent use once the graph is built.
func (g *Graph) HappensBefore(x, y int) bool {
	return g.happensBefore(x, y, true)
}

// HappensBeforeNoCache is the uncached variant used by the naive baseline.
// It allocates a fresh frontier per query and is likewise safe for
// concurrent use.
func (g *Graph) HappensBeforeNoCache(x, y int) bool {
	return g.happensBefore(x, y, false)
}

func (g *Graph) happensBefore(x, y int, useCache bool) bool {
	sx, sy := g.Nodes[x].Seg, g.Nodes[y].Seg
	if sx == sy {
		return x < y
	}
	f := g.frontier(sx, x, useCache)
	return f[sy] <= y
}

// frontier returns, for every segment, the minimum node position reachable
// from (seg, pos) via inter-origin edges. The result depends on pos only
// through the index of the first outgoing edge at or after it, which is
// what the index is keyed on. The returned slice must not be modified.
func (g *Graph) frontier(seg SegID, pos int, useCache bool) []int {
	if !useCache {
		return g.computeFrontier(seg, pos)
	}
	e := &g.reach[seg][firstFrom(g.out[seg], pos)]
	computed := false
	e.once.Do(func() {
		e.f = g.computeFrontier(seg, pos)
		computed = true
	})
	// Cache accounting: the goroutine that ran the traversal records a
	// miss, every other caller a hit. The counters are nil (and Inc a
	// no-op) when observability is disabled.
	if computed {
		g.reachMisses.Inc()
	} else {
		g.reachHits.Inc()
	}
	return e.f
}

// firstFrom returns the index of the first edge in es (sorted by From)
// whose source is at or after pos, or len(es) if there is none.
func firstFrom(es []Edge, pos int) int {
	lo, hi := 0, len(es)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if es[m].From < pos {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// computeFrontier performs the worklist traversal. Unreachable segments
// map to math.MaxInt. It only reads graph state that is immutable after
// Build, so concurrent calls are safe.
//
// The traversal state is the minimum reached position per segment, which
// is the frontier itself except at the start segment: there the walk
// starts from pos, while the frontier records only positions reached back
// through edges (x does not happen before earlier nodes of its own
// segment). That one entry is tracked on the side, so the result slice
// doubles as the traversal state.
func (g *Graph) computeFrontier(seg SegID, pos int) []int {
	f := make([]int, len(g.Segs))
	for i := range f {
		f[i] = math.MaxInt
	}
	f[seg] = pos
	self := math.MaxInt
	var stack [32]SegID // worklist backing; spills to the heap only on deep fan-out
	wl := append(stack[:0], seg)
	for len(wl) > 0 {
		s := wl[len(wl)-1]
		wl = wl[:len(wl)-1]
		es := g.out[s]
		// An outgoing edge (from → to) is usable when from is at or after
		// the minimum reached position in its segment.
		for _, e := range es[firstFrom(es, f[s]):] {
			to := e.To
			if to < 0 {
				continue
			}
			ts := g.Nodes[to].Seg
			if ts == seg && to < self {
				self = to
			}
			if to < f[ts] {
				f[ts] = to
				wl = append(wl, ts)
			}
		}
	}
	f[seg] = self
	return f
}
