package main

import (
	"runtime"
	"time"
)

// The traced run times each layer from outside: the benchmark wraps its
// own calls into a layer's public functions with tracer.call. Nothing
// inside the program changes. Each program or request is one root span;
// the layer calls it makes are its children. A layer's self time is the
// sum of its call durations (calls do not nest), and the traced wall time
// is the sum of the root spans, so the shares of the layers add up to at
// most 1 and the rest is the benchmark's own glue.

// layerStat accumulates one layer's calls over a traced phase.
type layerStat struct {
	self    time.Duration
	calls   int
	mallocs uint64 // exact heap objects allocated inside the calls
	bytes   uint64 // exact heap bytes allocated inside the calls
}

// tracer records layer calls of one goroutine. A nil *tracer is the
// untraced run: call just runs the function. A traced run uses two
// tracers in separate phases: one records time only, the other exact
// allocations, whose MemStats reads cost more than a small layer call.
type tracer struct {
	// exact reads runtime.ReadMemStats around every call. ReadMemStats
	// stops the world and flushes the per-P allocation caches, so the
	// deltas are exact — provided nothing but the traced call allocates
	// meanwhile, which holds when one goroutine drives the pipeline.
	exact  bool
	layers map[string]*layerStat
	wall   time.Duration // sum of root spans
	roots  int
	m0, m1 runtime.MemStats
}

func newTracer(exact bool) *tracer {
	return &tracer{exact: exact, layers: map[string]*layerStat{}}
}

func (t *tracer) layer(name string) *layerStat {
	l := t.layers[name]
	if l == nil {
		l = &layerStat{}
		t.layers[name] = l
	}
	return l
}

// call runs fn as one call into layer and records its duration and, with
// exact accounting, its allocations. The MemStats reads lie outside the
// timed interval, so they count toward no layer.
func (t *tracer) call(layer string, fn func()) {
	if t == nil {
		fn()
		return
	}
	if t.exact {
		runtime.ReadMemStats(&t.m0)
	}
	start := time.Now()
	fn()
	d := time.Since(start)
	if t.exact {
		runtime.ReadMemStats(&t.m1)
	}
	l := t.layer(layer)
	l.self += d
	l.calls++
	if t.exact {
		l.mallocs += t.m1.Mallocs - t.m0.Mallocs
		l.bytes += t.m1.TotalAlloc - t.m0.TotalAlloc
	}
}

// add records d of self time for layer, measured elsewhere (the serve
// workload derives scheduler and server time from the job view).
func (t *tracer) add(layer string, d time.Duration) {
	if t == nil {
		return
	}
	l := t.layer(layer)
	l.self += d
	l.calls++
}

// root records one finished root span that started at start.
func (t *tracer) root(start time.Time) {
	if t == nil {
		return
	}
	t.wall += time.Since(start)
	t.roots++
}

// merge folds o's records into t (one tracer per client goroutine).
func (t *tracer) merge(o *tracer) {
	for name, ol := range o.layers {
		l := t.layer(name)
		l.self += ol.self
		l.calls += ol.calls
		l.mallocs += ol.mallocs
		l.bytes += ol.bytes
	}
	t.wall += o.wall
	t.roots += o.roots
}

// layerMetric names the self-time and share metrics of one traced layer.
type layerMetric struct {
	layer, self, share string
}

// tracedLayers lists every layer the traced run can time, in pipeline
// order. A layer the workload does not reach reports 0.
var tracedLayers = []layerMetric{
	{"corpus", "corpus.self_ms", "corpus.share"},
	{"lang", "lang.self_ms", "lang.share"},
	{"pta", "pta.self_ms", "pta.share"},
	{"osa", "osa.self_ms", "osa.share"},
	{"shb", "shb.self_ms", "shb.share"},
	{"race", "race.self_ms", "race.share"},
	{"witness", "race.witness_self_ms", "race.witness_share"},
	{"report", "report.self_ms", "report.share"},
	{"sched", "sched.self_ms", "sched.share"},
	{"server", "server.self_ms", "server.share"},
}

// setLayerMetrics reports each layer's self time per root span and its
// share of the traced wall time, and returns the shares' sum.
func (t *tracer) setLayerMetrics(m metrics) (covered float64) {
	for _, lm := range tracedLayers {
		var self, share float64
		if l := t.layers[lm.layer]; l != nil && t.roots > 0 {
			self = ms(l.self) / float64(t.roots)
			share = float64(l.self) / float64(t.wall)
		}
		m.set(lm.self, self, "ms")
		m.set(lm.share, share, "share")
		covered += share
	}
	return covered
}

// allocMB is a layer's exact allocated MiB per call (0 if never called).
func (t *tracer) allocMB(layer string) float64 {
	l := t.layers[layer]
	if l == nil || l.calls == 0 {
		return 0
	}
	return float64(l.bytes) / mib / float64(l.calls)
}

// layerCounts are the traced run's work counts and rates. A workload
// fills what its path reaches; the rest report 0.
type layerCounts struct {
	programs   int   // programs that went through pta..race (per-program denominator)
	srcBytes   int64 // source bytes compiled
	ptaSteps   int64
	sharedLocs int64
	shbNodes   int64
	shbSegs    int64
	pairs      int64
	races      int64
	respBytes  int64 // encoded response bytes
	responses  int

	inflightMS     []float64 // corpus: pull to emit
	schedWaitMS    []float64 // serve: job wall minus analysis time, on misses
	serverOverMS   []float64 // serve: round trip minus job wall
	cacheHitShare  float64
	gcShare        float64 // untraced phase, process-wide
	allocPerProgMB float64 // untraced phase, process-wide
	overheadShare  float64 // traced minus untraced time per root, over untraced
}

// tracedMetrics renders every per-layer metric from the timing tracer t,
// the exact-allocation tracer a and the counts.
func tracedMetrics(t, a *tracer, c *layerCounts) metrics {
	m := metrics{}
	covered := t.setLayerMetrics(m)
	per := func(n int64) float64 {
		if c.programs == 0 {
			return 0
		}
		return float64(n) / float64(c.programs)
	}
	m.set("corpus.inflight_p50_ms", median(c.inflightMS), "ms")
	var srcRate float64
	if l := t.layers["lang"]; l != nil && l.self > 0 {
		srcRate = float64(c.srcBytes) / mib / l.self.Seconds()
	}
	m.set("lang.src_mb_per_s", srcRate, "MB/s")
	m.set("lang.alloc_mb", a.allocMB("lang"), "MB")
	m.set("pta.steps", per(c.ptaSteps), "count")
	m.set("pta.alloc_mb", a.allocMB("pta"), "MB")
	m.set("osa.shared_locations", per(c.sharedLocs), "count")
	m.set("shb.nodes", per(c.shbNodes), "count")
	m.set("shb.segments", per(c.shbSegs), "count")
	m.set("race.pairs_checked", per(c.pairs), "count")
	var yield float64
	if c.pairs > 0 {
		yield = float64(c.races) / float64(c.pairs)
	}
	m.set("race.race_yield", yield, "share")
	m.set("race.detect_alloc_mb", a.allocMB("race"), "MB")
	var respKB float64
	if c.responses > 0 {
		respKB = float64(c.respBytes) / 1024 / float64(c.responses)
	}
	m.set("report.resp_kb", respKB, "KB")
	m.set("sched.wait_p50_ms", median(c.schedWaitMS), "ms")
	m.set("sched.cache_hit_share", c.cacheHitShare, "share")
	m.set("server.overhead_p50_ms", median(c.serverOverMS), "ms")
	m.set("gc.cpu_share", c.gcShare, "share")
	m.set("alloc_mb_per_program", c.allocPerProgMB, "MB")
	m.set("trace.overhead_share", c.overheadShare, "share")
	m.set("trace.covered_share", covered, "share")
	return m
}

// overheadShare compares the mean root span of the traced phase with the
// mean time per root of the untraced phase.
func overheadShare(untraced time.Duration, untracedRoots int, t *tracer) float64 {
	if untracedRoots == 0 || t.roots == 0 || untraced <= 0 {
		return 0
	}
	u := float64(untraced) / float64(untracedRoots)
	tr := float64(t.wall) / float64(t.roots)
	return (tr - u) / u
}
