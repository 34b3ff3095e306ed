package obs

import "runtime"

// HeapCounters is a snapshot of the runtime's cumulative heap-allocation
// totals. Both values are monotonically increasing over the life of the
// process, so the difference of two snapshots is the number of objects and
// bytes allocated between them — the same quantities testing.B reports as
// allocs/op and B/op, but readable around an arbitrary code region.
type HeapCounters struct {
	Objects uint64
	Bytes   uint64
}

// ReadHeapCounters samples the cumulative heap allocation totals with
// runtime.ReadMemStats. It stops the world and flushes every P's
// allocation cache first, so the difference of two samples is the exact
// allocation count of the code in between — the same reading
// testing.AllocsPerRun takes. (runtime/metrics reads the totals without
// the flush, so small objects appear only when a cache span is refilled
// and a phase's count is off by up to a span's worth.) The stop costs
// tens of microseconds: read it at phase boundaries, not in loops.
func ReadHeapCounters() HeapCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return HeapCounters{Objects: ms.Mallocs, Bytes: ms.TotalAlloc}
}

// HeapGauges publishes the allocation delta since the given baseline as
// two gauges, "<phase>.heap_allocs" and "<phase>.heap_bytes". The
// "_allocs"/"_bytes" suffixes mark them as non-deterministic (a GC cycle
// or another goroutine can allocate inside the window), so
// RunStats.Deterministic strips them alongside the "_ns" times; CI gates
// them through explicit budgets instead of byte comparison. No-op on a
// nil registry.
func (r *Registry) HeapGauges(phase string, base HeapCounters) {
	if !r.Enabled() {
		return
	}
	now := ReadHeapCounters()
	r.SetGauge(phase+".heap_allocs", int64(now.Objects-base.Objects))
	r.SetGauge(phase+".heap_bytes", int64(now.Bytes-base.Bytes))
}
