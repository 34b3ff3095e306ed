package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"o2"
	"o2/internal/corpus"
	"o2/internal/report"
)

// setupRepeats is how many times a run sets up its inputs; setup_s is the
// median.
const setupRepeats = 11

// corpusRun checks corpus-stream passes against a reference: the race
// sets of an untimed warm-up pass through AnalyzeCorpus, each scored by
// its oracle once.
type corpusRun struct {
	in      *corpusInput
	workers int
	ref     [][]report.RaceKey
	refOK   []bool
	out     *outcome
}

// verdict counts one program's keys against the reference.
func (c *corpusRun) verdict(idx int, keys []report.RaceKey) {
	c.out.attempted++
	if !c.refOK[idx] || !report.SameKeys(c.ref[idx], keys) {
		c.out.wrongVerdicts++
	}
}

// pullIter records when AnalyzeCorpus pulls each program off the stream.
type pullIter struct {
	it    corpus.Iterator
	pulls []time.Time
	n     int
}

func (p *pullIter) Next() (o2.Source, bool, error) {
	t := time.Now()
	src, ok, err := p.it.Next()
	if ok {
		p.pulls[p.n] = t
		p.n++
	}
	return src, ok, err
}

// streamPass streams the manifest once through o2.AnalyzeCorpus and
// returns the wall time, each program's pull-to-emit latency in ms and
// its canonical race keys (nil for a failed program).
func (c *corpusRun) streamPass() (time.Duration, []float64, [][]report.RaceKey, int, error) {
	n := len(c.in.oracles)
	iter := &pullIter{it: corpus.InlineManifest(bytes.NewReader(c.in.manifest)), pulls: make([]time.Time, n)}
	lat := make([]float64, 0, n)
	keys := make([][]report.RaceKey, n)
	failed := 0
	cfg := o2.CorpusConfig{Config: o2.DefaultConfig(), Workers: c.workers}
	start := time.Now()
	_, err := o2.AnalyzeCorpus(context.Background(), iter, cfg, func(cr o2.CorpusResult) error {
		lat = append(lat, ms(time.Since(iter.pulls[cr.Index])))
		if cr.Err != nil {
			failed++
			return nil
		}
		keys[cr.Index] = report.Canonical(cr.Result.Report, cr.Result.Analysis.Origins)
		return nil
	})
	wall := time.Since(start)
	if err != nil {
		return 0, nil, nil, 0, fmt.Errorf("corpus stream: %w", err)
	}
	return wall, lat, keys, failed, nil
}

// streamFor runs stream passes until d has passed and at least
// minSamples programs completed, checking every verdict between passes.
// It returns every program's latency in ms and each pass's throughput.
func (c *corpusRun) streamFor(d time.Duration, minSamples int) ([]float64, []float64, error) {
	var wall time.Duration
	var lats, rates []float64
	for wall < d || len(lats) < minSamples {
		w, lat, keys, failed, err := c.streamPass()
		if err != nil {
			return nil, nil, err
		}
		wall += w
		lats = append(lats, lat...)
		rates = append(rates, float64(len(lat))/w.Seconds())
		c.out.failed += failed
		for i, k := range keys {
			if k != nil {
				c.verdict(i, k)
			} else {
				c.out.attempted++
			}
		}
	}
	return lats, rates, nil
}

// seqPass analyzes the manifest once on one goroutine, calling each layer
// itself: corpus.InlineManifest's Next, lang.CompileFiles, then the
// analysis layers and report.Canonical. It is AnalyzeCorpus with one
// worker, taken apart so that t can time every layer. It returns the sum
// of the per-program root spans.
func (c *corpusRun) seqPass(t *tracer, lc *layerCounts) (time.Duration, error) {
	ctx := context.Background()
	cfg := o2.DefaultConfig()
	cfg.Workers = 1 // as AnalyzeCorpus runs each program
	it := corpus.InlineManifest(bytes.NewReader(c.in.manifest))
	var roots time.Duration
	for idx := 0; ; idx++ {
		start := time.Now()
		var src o2.Source
		var ok bool
		var err error
		t.call("corpus", func() { src, ok, err = it.Next() })
		if err != nil {
			return 0, fmt.Errorf("manifest: %w", err)
		}
		if !ok {
			return roots, nil
		}
		var keys []report.RaceKey
		prog, err := compileLayer(src, cfg, t)
		var r *analysis
		if err == nil {
			r, err = analyzeLayers(ctx, prog, cfg, t)
		}
		if err == nil {
			t.call("report", func() { keys = r.canonical() })
		}
		roots += time.Since(start)
		t.root(start)
		if err != nil {
			c.out.attempted++
			c.out.failed++
			continue
		}
		if lc != nil {
			lc.srcBytes += int64(len(src.Bytes))
			r.count(lc)
		}
		c.verdict(idx, keys)
	}
}

// seqFor runs whole sequential passes until d has passed.
func (c *corpusRun) seqFor(d time.Duration, t *tracer, lc *layerCounts) (time.Duration, int, error) {
	var roots time.Duration
	programs := 0
	for start := time.Now(); programs == 0 || time.Since(start) < d; {
		r, err := c.seqPass(t, lc)
		if err != nil {
			return 0, 0, err
		}
		roots += r
		programs += len(c.in.oracles)
	}
	return roots, programs, nil
}

func runCorpusStream(seed int64, d time.Duration, trace bool) (*outcome, error) {
	in, setupS, err := medianSetup(setupRepeats, func() (*corpusInput, error) {
		return buildCorpusInput(seed, corpusManifestLen)
	}, nil)
	if err != nil {
		return nil, err
	}
	c := &corpusRun{in: in, workers: runtime.NumCPU(), out: &outcome{}}
	// The untimed warm-up pass sets the reference race sets; the oracle
	// scores each once.
	_, _, ref, failed, err := c.streamPass()
	if err != nil {
		return nil, err
	}
	if failed > 0 {
		return nil, fmt.Errorf("warm-up pass: %d programs failed", failed)
	}
	c.ref = ref
	c.refOK = make([]bool, len(ref))
	for i := range ref {
		c.refOK[i] = in.oracles[i].ok(ref[i])
	}

	if !trace {
		lats, rates, err := c.streamFor(d, minP90Samples)
		if err != nil {
			return nil, err
		}
		p50, p90, err := latencyQuantiles(lats)
		if err != nil {
			return nil, err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		m := metrics{}
		m.set("setup_s", setupS, "s")
		m.set("programs_per_s", median(rates), "1/s")
		m.set("latency_p50_ms", p50, "ms")
		m.set("latency_p90_ms", p90, "ms")
		m.set("peak_rss_mb", rss, "MB")
		fmt.Printf("samples latency %d\n", len(lats))
		c.out.metrics = m
		return c.out, nil
	}

	// Traced run, in four phases of a quarter of the time each: the real
	// engine for the process-wide and in-flight figures, then the
	// sequential pipeline untraced, timed per layer, and with exact
	// allocations per layer.
	lc := &layerCounts{}
	gm := startGCMeter()
	lats, _, err := c.streamFor(d/4, 1)
	if err != nil {
		return nil, err
	}
	gcShare, alloc := gm.stop()
	lc.gcShare = gcShare
	lc.allocPerProgMB = float64(alloc) / mib / float64(len(lats))
	lc.inflightMS = lats
	untraced, untracedN, err := c.seqFor(d/4, nil, nil)
	if err != nil {
		return nil, err
	}
	t, a := newTracer(false), newTracer(true)
	if _, _, err := c.seqFor(d/4, t, lc); err != nil {
		return nil, err
	}
	if _, _, err := c.seqFor(d/4, a, nil); err != nil {
		return nil, err
	}
	lc.overheadShare = overheadShare(untraced, untracedN, t)
	c.out.metrics = tracedMetrics(t, a, lc)
	return c.out, nil
}
