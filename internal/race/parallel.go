package race

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"o2/internal/obs"
	"o2/internal/pta"
	"o2/internal/shb"
)

// pairBudget is the shared atomic candidate-pair budget. Every worker
// reserves one unit per pair via take before checking it, so the total
// number of pairs examined never exceeds limit regardless of the worker
// count. A limit of 0 means unlimited. Cancellation rides alongside as a
// pta.Latch bridged from the detect context: checkGroup polls it on a
// stride (cancelStride iterations) and the group-claim loop polls it via
// stopped, so the two mechanisms always agree — a tripped latch stops the
// pair loop within one stride and stops group claiming at the next claim,
// without marking the budget as tripped (TimedOut stays false on pure
// cancellation; see TestCancelLatchAgreesWithPairBudget).
type pairBudget struct {
	limit   int64
	used    atomic.Int64
	tripped atomic.Bool
	latch   *pta.Latch // trips when the detect context ends; nil when not cancellable
}

// take reserves one pair. It returns false once the budget is exhausted,
// marking it as tripped; a failed reservation is rolled back so used never
// exceeds limit. With no limit it is a single branch.
func (b *pairBudget) take() bool {
	if b.limit <= 0 {
		return true
	}
	if b.tripped.Load() {
		return false
	}
	if b.used.Add(1) > b.limit {
		b.tripped.Store(true)
		b.used.Add(-1)
		return false
	}
	return true
}

// canceled reports whether the detect context ended: one atomic load (a
// nil compare when the context was never cancellable).
func (b *pairBudget) canceled() bool { return b.latch.Tripped() }

func (b *pairBudget) isTripped() bool { return b.tripped.Load() }

// stopped reports whether detection should claim no further groups,
// either because the pair budget tripped or the context ended.
func (b *pairBudget) stopped() bool { return b.tripped.Load() || b.latch.Tripped() }

// detectParallel shards the sorted candidate groups across workers. The
// caller is worker 0 and spawns workers-1 more; every worker claims group
// indices from a shared atomic cursor, writes the result into the group's
// own slot and then raises the group's done flag. Between its own groups
// the caller merges the completed prefix in sorted key order, so merging
// streams alongside detection without a merger goroutine, a completion
// queue or a polling loop; once it runs out of groups it waits for the
// other workers and merges the rest. Because merging replays results in
// index order, the cross-group race dedup sees candidates in exactly the
// sequential encounter order — the parallel report is byte-identical to
// Workers == 1 whenever the budget does not trip, and a consistent lower
// bound when it does (finished groups keep all their races; groups nobody
// claimed hold zero results, which is the sequential stop-at-trip
// semantics).
// It returns the summed busy time of all workers (0 when observability is
// disabled), which Detect turns into the worker-utilization gauge: a
// worker is busy from pool entry until it runs out of groups, so the
// ratio busy/(workers × wall) exposes shard imbalance.
func detectParallel(a *pta.Analysis, g *shb.Graph, opt Options, rep *Report, grp *grouped, bud *pairBudget, workers int, sp *obs.Span) int64 {
	keys := grp.keys
	results := make([]groupResult, len(keys))
	// done[i] is raised after results[i] is written; the atomic store and
	// load order the result write before the caller's merge reads it.
	done := make([]atomic.Bool, len(keys))
	var next atomic.Int64
	var busyNS atomic.Int64
	m := newMerger(rep, g, opt, bud)
	nextMerge := 0
	mergeDone := func() {
		for nextMerge < len(keys) && done[nextMerge].Load() && !bud.canceled() {
			m.merge(keys[nextMerge], &results[nextMerge])
			nextMerge++
		}
	}
	work := func(w int, afterGroup func()) {
		var ws *obs.Span
		if sp != nil {
			ws = sp.Child(fmt.Sprintf("worker-%02d", w))
			start := time.Now()
			defer func() {
				busyNS.Add(int64(time.Since(start)))
				ws.End()
			}()
		}
		// Per-worker racePair arena: checkGroup results hold views into
		// it. Never reset — a published view may still be unread by the
		// merger; later appends only write past every published view's
		// capacity (see checkGroup).
		var buf []racePair
		// Per-worker origin tally, merged additively on exit so the
		// attribution totals are worker-count independent.
		tally := opt.newTally()
		defer opt.Attr.merge(tally)
		for !bud.stopped() {
			i := int(next.Add(1)) - 1
			if i >= len(keys) {
				return
			}
			results[i], buf = checkGroup(a, g, keys[i], grp.group(i), opt, bud, buf, tally)
			done[i].Store(true)
			if afterGroup != nil {
				afterGroup()
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			work(w, nil)
		}(w)
	}
	work(0, mergeDone)
	// Every claimed group is done once the workers exit (and their
	// deferred tally merges and busy-time adds are visible); unclaimed
	// groups after a budget trip merge as empty results. After a
	// cancellation the report is a lower bound, so the rest is dropped.
	wg.Wait()
	for ; nextMerge < len(keys) && !bud.canceled(); nextMerge++ {
		m.merge(keys[nextMerge], &results[nextMerge])
	}
	return busyNS.Load()
}
