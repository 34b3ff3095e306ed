package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"o2"
	"o2/internal/ir"
	"o2/internal/race"
	"o2/internal/report"
	"o2/internal/workload"
)

// presetNames are the preset-analyze programs: linux sets the latency
// tail, sqlite3 is witness-bound, telegram stresses origin scaling,
// zookeeper and gosync fill in the middle and the small end.
var presetNames = []string{"linux", "telegram", "zookeeper", "sqlite3", "gosync"}

// buildPresets builds every preset's IR with its own generator seed. The
// workload seed orders the analyses instead of offsetting the generator
// seeds: an offset changes the programs themselves (sqlite3 reports 857
// to 2271 races over seeds 0 to 6), which moved the median latency by a
// third from seed to seed and hid any change in the code.
func buildPresets() ([]*ir.Program, error) {
	entries := o2.DefaultConfig().Entries
	progs := make([]*ir.Program, len(presetNames))
	for i, name := range presetNames {
		p, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown preset %q", name)
		}
		progs[i] = workload.Build(p, entries)
	}
	return progs, nil
}

// presetRun analyzes the presets in seeded cycles: each cycle is a
// permutation of all of them, so every run measures the same mix.
type presetRun struct {
	progs []*ir.Program
	rng   *rand.Rand
	ref   [][]report.RaceKey // per preset: the warm-up run's race set
	runs  []int              // per preset: analyses checked against ref
	lats  [][]float64        // per preset: latencies, ms
	out   *outcome
}

// presetResult is one analyzed preset: its race set and the encoded
// witnesses, the response a caller receives.
type presetResult struct {
	keys []report.RaceKey
	resp []byte
}

// analyzeEngine is the end-to-end path: o2.Analyze, then witnesses and
// their JSON encoding.
func analyzeEngine(prog *ir.Program) (*presetResult, error) {
	res, err := o2.Analyze(context.Background(), prog, o2.DefaultConfig())
	if err != nil {
		return nil, err
	}
	resp, err := json.Marshal(race.Witnesses(res.Analysis, res.Graph, res.Report))
	if err != nil {
		return nil, err
	}
	return &presetResult{keys: report.Canonical(res.Report, res.Analysis.Origins), resp: resp}, nil
}

// analyzeTraced is the same path with every layer called on its own, so
// that t can time it.
func analyzeTraced(prog *ir.Program, t *tracer, lc *layerCounts) (*presetResult, error) {
	r, err := analyzeLayers(context.Background(), prog, o2.DefaultConfig(), t)
	if err != nil {
		return nil, err
	}
	var ws []*race.Witness
	t.call("witness", func() { ws = race.Witnesses(r.a, r.g, r.rep) })
	pr := &presetResult{}
	t.call("report", func() {
		pr.keys = r.canonical()
		pr.resp, err = json.Marshal(ws)
	})
	if err != nil {
		return nil, err
	}
	if lc != nil {
		r.count(lc)
		lc.respBytes += int64(len(pr.resp))
		lc.responses++
	}
	return pr, nil
}

// cycles analyzes whole cycles until d has passed and at least
// minSamples programs completed. It returns each program's latency in ms,
// their sum, and each cycle's throughput.
func (p *presetRun) cycles(d time.Duration, minSamples int, analyze func(*ir.Program) (*presetResult, error)) ([]float64, time.Duration, []float64, error) {
	var lats, rates []float64
	var busy time.Duration
	for busy < d || len(lats) < minSamples {
		cycleBusy, cycleDone := busy, len(lats)
		for _, idx := range p.rng.Perm(len(p.progs)) {
			start := time.Now()
			pr, err := analyze(p.progs[idx])
			took := time.Since(start)
			p.out.attempted++
			if err != nil {
				p.out.failed++
				continue
			}
			busy += took
			lats = append(lats, ms(took))
			p.lats[idx] = append(p.lats[idx], ms(took))
			p.runs[idx]++
			if !report.SameKeys(p.ref[idx], pr.keys) {
				p.out.wrongVerdicts++
			}
		}
		if busy > cycleBusy {
			rates = append(rates, float64(len(lats)-cycleDone)/(busy-cycleBusy).Seconds())
		}
	}
	return lats, busy, rates, nil
}

// checkNaive compares each preset's reference race set with the
// race.NaiveOptions detector, the unoptimized reference; every analysis
// of a preset that differs is a wrong verdict. It runs after timing.
func (p *presetRun) checkNaive() error {
	cfg := o2.DefaultConfig()
	cfg.Detector = race.NaiveOptions()
	for i, prog := range p.progs {
		res, err := o2.Analyze(context.Background(), prog, cfg)
		if err != nil {
			return fmt.Errorf("naive reference %s: %w", presetNames[i], err)
		}
		if !report.SameKeys(p.ref[i], report.Canonical(res.Report, res.Analysis.Origins)) {
			fmt.Printf("oracle %s: race set differs from the naive reference\n", presetNames[i])
			p.out.wrongVerdicts += p.runs[i]
		}
	}
	return nil
}

func runPresetAnalyze(seed int64, d time.Duration, trace bool) (*outcome, error) {
	progs, setupS, err := medianSetup(setupRepeats, func() ([]*ir.Program, error) { return buildPresets() }, nil)
	if err != nil {
		return nil, err
	}
	p := &presetRun{
		progs: progs,
		rng:   rand.New(rand.NewSource(seed)),
		ref:   make([][]report.RaceKey, len(progs)),
		runs:  make([]int, len(progs)),
		lats:  make([][]float64, len(progs)),
		out:   &outcome{},
	}
	// Untimed warm-up: one analysis per preset sets the reference.
	for i, prog := range progs {
		pr, err := analyzeEngine(prog)
		if err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", presetNames[i], err)
		}
		p.ref[i] = pr.keys
	}

	if !trace {
		lats, _, rates, err := p.cycles(d, minP90Samples, analyzeEngine)
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
		if err := p.checkNaive(); err != nil {
			return nil, err
		}
		m := metrics{}
		m.set("setup_s", setupS, "s")
		m.set("programs_per_s", median(rates), "1/s")
		m.set("latency_p50_ms", p50, "ms")
		m.set("latency_p90_ms", p90, "ms")
		m.set("peak_rss_mb", rss, "MB")
		fmt.Printf("samples latency %d\n", len(lats))
		for i, name := range presetNames {
			fmt.Printf("preset %s races %d latency_p50_ms %.3f samples %d\n", name, len(p.ref[i]), median(p.lats[i]), len(p.lats[i]))
		}
		p.out.metrics = m
		return p.out, nil
	}

	// Traced run, in three phases of a third of the time each, all through
	// the layer-by-layer path: untraced, timed per layer, and with exact
	// allocations per layer.
	lc := &layerCounts{}
	gm := startGCMeter()
	lats, untraced, _, err := p.cycles(d/3, 1, func(prog *ir.Program) (*presetResult, error) {
		return analyzeTraced(prog, nil, nil)
	})
	if err != nil {
		return nil, err
	}
	gcShare, alloc := gm.stop()
	lc.gcShare = gcShare
	lc.allocPerProgMB = float64(alloc) / mib / float64(len(lats))
	t, a := newTracer(false), newTracer(true)
	for _, ph := range []struct {
		t  *tracer
		lc *layerCounts
	}{{t, lc}, {a, nil}} {
		_, _, _, err := p.cycles(d/3, 1, func(prog *ir.Program) (*presetResult, error) {
			start := time.Now()
			defer ph.t.root(start)
			return analyzeTraced(prog, ph.t, ph.lc)
		})
		if err != nil {
			return nil, err
		}
	}
	if err := p.checkNaive(); err != nil {
		return nil, err
	}
	lc.overheadShare = overheadShare(untraced, len(lats), t)
	p.out.metrics = tracedMetrics(t, a, lc)
	return p.out, nil
}
