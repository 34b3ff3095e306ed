// Benchmarks regenerating the paper's evaluation, one benchmark family per
// table or figure. Sub-benchmarks name the workload preset (and policy
// where the table compares policies), so
//
//	go test -bench=Table5 -benchmem
//
// reproduces Table 5's timing comparison as Go benchmark output, while
//
//	go run ./cmd/o2bench -table 5
//
// prints it in the paper's tabular layout. Budgets mirror the paper's
// 4-hour timeout; runs that exceed them are skipped (reported as the
// table's ">budget" cells).
package o2_test

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"time"

	"testing"

	"o2"
	"o2/internal/bench"
	"o2/internal/cases"
	"o2/internal/deadlock"
	"o2/internal/ir"
	"o2/internal/lang"
	"o2/internal/obs"
	"o2/internal/osa"
	"o2/internal/oversync"
	"o2/internal/pta"
	"o2/internal/race"
	"o2/internal/racerd"
	"o2/internal/sched"
	"o2/internal/shb"
	"o2/internal/workload"
)

var benchOpts = bench.Opts{}

// table5Presets is the representative subset benchmarked per policy; the
// full 27-preset sweep runs through cmd/o2bench.
var table5Presets = []string{"avrora", "tomcat", "k9mail", "telegram", "zookeeper"}

// BenchmarkTable5_PTA measures pointer-analysis time per policy (the left
// half of Table 5).
func BenchmarkTable5_PTA(b *testing.B) {
	entries := ir.DefaultEntryConfig()
	for _, name := range table5Presets {
		p, _ := workload.ByName(name)
		prog := workload.Build(p, entries)
		for _, pol := range bench.AllPolicies {
			b.Run(fmt.Sprintf("%s/%s", name, pol.Name()), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					pr := bench.RunPTA(prog, pol, entries, benchOpts.StepBudget+500_000)
					if pr.TimedOut {
						b.Skipf("exceeded step budget (the paper's >4h cell)")
					}
				}
			})
		}
	}
}

// BenchmarkTable5_Detection measures the full race-detection pipeline per
// policy (the right half of Table 5).
func BenchmarkTable5_Detection(b *testing.B) {
	entries := ir.DefaultEntryConfig()
	for _, name := range table5Presets {
		p, _ := workload.ByName(name)
		prog := workload.Build(p, entries)
		for _, pol := range []pta.Policy{bench.P0, bench.POPA, bench.P1CFA} {
			b.Run(fmt.Sprintf("%s/%s", name, pol.Name()), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					pr := bench.RunPTA(prog, pol, entries, 500_000)
					if pr.TimedOut {
						b.Skipf("exceeded step budget")
					}
					dr := bench.RunDetect(pr.A, race.O2Options(), false, 3_000_000)
					if dr.TimedOut {
						b.Skipf("exceeded pair budget")
					}
				}
			})
		}
	}
}

// BenchmarkTable5_RacerD measures the RacerD-style comparator.
func BenchmarkTable5_RacerD(b *testing.B) {
	entries := ir.DefaultEntryConfig()
	for _, name := range table5Presets {
		p, _ := workload.ByName(name)
		prog := workload.Build(p, entries)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				racerd.Analyze(prog, entries)
			}
		})
	}
}

// BenchmarkTable6 measures the C/C++-style presets (0-ctx vs OPA vs 2-CFA).
func BenchmarkTable6(b *testing.B) {
	entries := ir.DefaultEntryConfig()
	for _, p := range workload.Table6 {
		prog := workload.Build(p, entries)
		for _, pol := range []pta.Policy{bench.P0, bench.POPA, bench.P2CFA} {
			b.Run(fmt.Sprintf("%s/%s", p.Name, pol.Name()), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					pr := bench.RunPTA(prog, pol, entries, 500_000)
					if pr.TimedOut {
						b.Skipf("exceeded step budget (the paper's OOM cell)")
					}
				}
			})
		}
	}
}

// BenchmarkTable7 measures OSA against the TLOA-style escape analysis.
func BenchmarkTable7(b *testing.B) {
	entries := ir.DefaultEntryConfig()
	for _, name := range []string{"avrora", "eclipse", "sunflow", "xalan"} {
		p, _ := workload.ByName(name)
		prog := workload.Build(p, entries)
		b.Run(name+"/OSA", func(b *testing.B) {
			pr := bench.RunPTA(prog, bench.POPA, entries, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				osa.Analyze(pr.A)
			}
		})
		b.Run(name+"/TLOA", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, timedOut := bench.RunEscape(p, bench.Opts{StepBudget: 500_000}); timedOut {
					b.Skipf("2-CFA substrate exceeded budget")
				}
			}
		})
	}
}

// BenchmarkTable8 measures end-to-end detection per policy on Dacapo-style
// presets (the precision table's cost side).
func BenchmarkTable8(b *testing.B) {
	entries := ir.DefaultEntryConfig()
	for _, name := range []string{"avrora", "lusearch", "pmd"} {
		p, _ := workload.ByName(name)
		prog := workload.Build(p, entries)
		for _, pol := range []pta.Policy{bench.P0, bench.POPA} {
			b.Run(fmt.Sprintf("%s/%s", name, pol.Name()), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					pr := bench.RunPTA(prog, pol, entries, 500_000)
					if pr.TimedOut {
						b.Skip()
					}
					bench.RunDetect(pr.A, race.O2Options(), false, 3_000_000)
				}
			})
		}
	}
}

// BenchmarkTable9 measures the distributed-system presets.
func BenchmarkTable9(b *testing.B) {
	entries := ir.DefaultEntryConfig()
	for _, p := range workload.DistributedSystems() {
		prog := workload.Build(p, entries)
		b.Run(p.Name+"/O2", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pr := bench.RunPTA(prog, bench.POPA, entries, 500_000)
				if pr.TimedOut {
					b.Skip()
				}
				bench.RunDetect(pr.A, race.O2Options(), false, 3_000_000)
			}
		})
	}
}

// BenchmarkTable10 measures O2 on every real-world case-study model.
func BenchmarkTable10(b *testing.B) {
	entries := ir.DefaultEntryConfig()
	for _, c := range cases.Table10 {
		prog, err := lang.Compile(c.Name+".mini", c.Source, entries)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pr := bench.RunPTA(prog, bench.POPA, entries, 0)
				dr := bench.RunDetect(pr.A, race.O2Options(), c.Android, 0)
				if len(dr.Report.Races) != c.Races {
					b.Fatalf("%s: %d races, want %d", c.Name, len(dr.Report.Races), c.Races)
				}
			}
		})
	}
}

// BenchmarkTable3_Complexity measures propagation cost across the size
// sweep per policy (the empirical counterpart of Table 3).
func BenchmarkTable3_Complexity(b *testing.B) {
	entries := ir.DefaultEntryConfig()
	baseP, _ := workload.ByName("avrora")
	for _, scale := range []int{1, 2, 4} {
		p := workload.Scale(baseP, scale)
		prog := workload.Build(p, entries)
		for _, pol := range []pta.Policy{bench.P0, bench.POPA, bench.P2CFA} {
			b.Run(fmt.Sprintf("x%d/%s", scale, pol.Name()), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					pr := bench.RunPTA(prog, pol, entries, 2_000_000)
					if pr.TimedOut {
						b.Skip()
					}
				}
			})
		}
	}
}

// BenchmarkAblation measures detection with each §4.1 optimization
// disabled (and the D4-style naive mode).
func BenchmarkAblation(b *testing.B) {
	entries := ir.DefaultEntryConfig()
	p, _ := workload.ByName("zookeeper")
	prog := workload.Build(p, entries)
	pr := bench.RunPTA(prog, bench.POPA, entries, 0)
	sh := osa.Analyze(pr.A)
	g := shb.Build(pr.A, shb.Config{})
	variants := map[string]race.Options{
		"full":        race.O2Options(),
		"noRegions":   {RegionMerge: false, CanonicalLocksets: true, HBCache: true, OSAFilter: true},
		"noCanonLock": {RegionMerge: true, CanonicalLocksets: false, HBCache: true, OSAFilter: true},
		"noHBCache":   {RegionMerge: true, CanonicalLocksets: true, HBCache: false, OSAFilter: true},
		"naive":       race.NaiveOptions(),
	}
	for _, name := range []string{"full", "noRegions", "noCanonLock", "noHBCache", "naive"} {
		opts := variants[name]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				race.Detect(pr.A, sh, g, opts)
			}
		})
	}
}

// BenchmarkDetectAllocs measures the detection stage's allocation
// profile on the zookeeper preset (the distributed-system gate workload)
// at one and four workers:
//
//	go test -bench=DetectAllocs -benchmem
//
// is the command behind EXPERIMENTS.md's allocation table. The detect
// hot path is arena-backed (flat access groups, per-worker race-pair
// arenas, interned bitset locksets), so allocs/op stays near-constant in
// the workload size and the worker count.
func BenchmarkDetectAllocs(b *testing.B) {
	entries := ir.DefaultEntryConfig()
	p, _ := workload.ByName("zookeeper")
	prog := workload.Build(p, entries)
	pr := bench.RunPTA(prog, bench.POPA, entries, 0)
	sh := osa.Analyze(pr.A)
	g := shb.Build(pr.A, shb.Config{})
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			opts := race.O2Options()
			opts.Workers = w
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				race.Detect(pr.A, sh, g, opts)
			}
		})
	}
}

// BenchmarkPTASolve measures the pointer analysis alone on the §5.4 Linux
// kernel model, the largest preset, with its exact allocation profile:
//
//	go test -run=NONE -bench=PTASolve -benchmem
func BenchmarkPTASolve(b *testing.B) {
	entries := ir.DefaultEntryConfig()
	prog := workload.Build(workload.Linux(), entries)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := pta.New(prog, pta.Config{Policy: bench.POPA, Entries: entries, ReplicateEvents: true})
		if err := a.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// linuxSolved solves the §5.4 Linux kernel model once for the OSA and SHB
// benchmarks.
func linuxSolved(b *testing.B) *pta.Analysis {
	b.Helper()
	entries := ir.DefaultEntryConfig()
	a := pta.New(workload.Build(workload.Linux(), entries), pta.Config{Policy: bench.POPA, Entries: entries, ReplicateEvents: true})
	if err := a.Solve(); err != nil {
		b.Fatal(err)
	}
	return a
}

// BenchmarkOSA measures the origin-sharing analysis alone on the Linux
// kernel model, with its exact allocation profile:
//
//	go test -run=NONE -bench=OSA -benchmem
func BenchmarkOSA(b *testing.B) {
	a := linuxSolved(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = len(osa.Analyze(a).Shared)
	}
}

// BenchmarkSHBBuild measures static happens-before graph construction
// alone on the Linux kernel model, with its exact allocation profile:
//
//	go test -run=NONE -bench=SHBBuild -benchmem
func BenchmarkSHBBuild(b *testing.B) {
	a := linuxSolved(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = len(shb.Build(a, shb.Config{}).Nodes)
	}
}

// BenchmarkWitnesses measures witness building plus its JSON encoding on
// the sqlite3 preset, the witness-bound workload (over two thousand
// races), as o2 analyze -explain-json and the preset-analyze benchmark
// produce them:
//
//	go test -run=NONE -bench=Witnesses -benchmem
func BenchmarkWitnesses(b *testing.B) {
	p, _ := workload.ByName("sqlite3")
	cfg := o2.DefaultConfig()
	res, err := o2.Analyze(context.Background(), workload.Build(p, cfg.Entries), cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws := race.Witnesses(res.Analysis, res.Graph, res.Report)
		out, err := json.Marshal(ws)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = len(out)
	}
}

// benchSink keeps benchmark results alive past the compiler.
var benchSink int

// BenchmarkFigure2 measures the paper's running example end to end.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := o2.AnalyzeSources(context.Background(), []o2.Source{{Name: "figure2.mini", Bytes: []byte(cases.Figure2)}}, o2.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Races()) != 1 {
			b.Fatalf("figure 2 must report exactly 1 race")
		}
	}
}

// BenchmarkLinuxModel measures the §5.4 Linux kernel configuration.
func BenchmarkLinuxModel(b *testing.B) {
	entries := ir.DefaultEntryConfig()
	prog := workload.Build(workload.Linux(), entries)
	b.Run("O2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := pta.New(prog, pta.Config{Policy: bench.POPA, Entries: entries, ReplicateEvents: true})
			if err := a.Solve(); err != nil {
				b.Fatal(err)
			}
			sh := osa.Analyze(a)
			g := shb.Build(a, shb.Config{})
			race.Detect(a, sh, g, race.O2Options())
		}
	})
}

// BenchmarkParallelDetect measures the detection stage sequential vs
// parallel on the largest workload preset (the §5.4 Linux kernel model).
// The pipeline up to detection is solved once; each sub-benchmark differs
// only in Options.Workers, so
//
//	go test -bench=ParallelDetect -cpu=8
//
// reports the worker-pool speedup directly (the speedup tracks the
// available cores; with GOMAXPROCS=1 the worker counts tie).
func BenchmarkParallelDetect(b *testing.B) {
	entries := ir.DefaultEntryConfig()
	prog := workload.Build(workload.Linux(), entries)
	a := pta.New(prog, pta.Config{Policy: bench.POPA, Entries: entries, ReplicateEvents: true})
	if err := a.Solve(); err != nil {
		b.Fatal(err)
	}
	sh := osa.Analyze(a)
	g := shb.Build(a, shb.Config{})
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			opts := race.O2Options()
			opts.Workers = w
			for i := 0; i < b.N; i++ {
				race.Detect(a, sh, g, opts)
			}
		})
	}
}

// BenchmarkParallelDetectObs measures the observability layer's overhead
// on the detection hot path: the same workload and worker count as
// BenchmarkParallelDetect, once with Options.Obs nil (every obs call is a
// single nil-receiver branch) and once with a live registry. The disabled
// variant must stay within 2% of a build without the obs layer — the
// pairwise loop accumulates into per-group locals and only the merge step
// touches shared state, so the nil path adds no atomics per pair.
func BenchmarkParallelDetectObs(b *testing.B) {
	entries := ir.DefaultEntryConfig()
	prog := workload.Build(workload.Linux(), entries)
	a := pta.New(prog, pta.Config{Policy: bench.POPA, Entries: entries, ReplicateEvents: true})
	if err := a.Solve(); err != nil {
		b.Fatal(err)
	}
	sh := osa.Analyze(a)
	g := shb.Build(a, shb.Config{})
	b.Run("disabled", func(b *testing.B) {
		opts := race.O2Options()
		opts.Workers = 4
		for i := 0; i < b.N; i++ {
			race.Detect(a, sh, g, opts)
		}
	})
	b.Run("enabled", func(b *testing.B) {
		opts := race.O2Options()
		opts.Workers = 4
		for i := 0; i < b.N; i++ {
			opts.Obs = obs.New()
			race.Detect(a, sh, g, opts)
		}
	})
	// The telemetry-disabled paths added with /metrics and structured
	// logging must stay as cheap as the nil registry: a nil *Histogram
	// observation and a nil *slog.Logger guard are one branch each.
	b.Run("hist-disabled", func(b *testing.B) {
		opts := race.O2Options()
		opts.Workers = 4
		var h *obs.Histogram
		for i := 0; i < b.N; i++ {
			start := time.Now()
			race.Detect(a, sh, g, opts)
			h.ObserveSince(start)
		}
	})
	b.Run("hist-enabled", func(b *testing.B) {
		opts := race.O2Options()
		opts.Workers = 4
		h := obs.NewHistogram(nil)
		for i := 0; i < b.N; i++ {
			start := time.Now()
			race.Detect(a, sh, g, opts)
			h.ObserveSince(start)
		}
	})
	b.Run("slog-disabled", func(b *testing.B) {
		opts := race.O2Options()
		opts.Workers = 4
		var log *slog.Logger
		for i := 0; i < b.N; i++ {
			rep := race.Detect(a, sh, g, opts)
			if log != nil {
				log.Info("detect", "races", len(rep.Races))
			}
		}
	})
	// The flight-recorder hooks (live progress on the cancelStride tick,
	// per-origin pair attribution) follow the same contract: with
	// Options.Progress and Options.Attr nil they reduce to one nil check
	// per stride tick / per tallied pair and must track the plain
	// disabled variant; enabled they pay the per-stride atomics and the
	// worker-local tallies.
	b.Run("progress-disabled", func(b *testing.B) {
		opts := race.O2Options()
		opts.Workers = 4
		var p *obs.Progress
		for i := 0; i < b.N; i++ {
			opts.Progress = p
			race.Detect(a, sh, g, opts)
			_ = p.Snapshot()
		}
	})
	b.Run("progress-enabled", func(b *testing.B) {
		opts := race.O2Options()
		opts.Workers = 4
		for i := 0; i < b.N; i++ {
			opts.Progress = obs.NewProgress()
			opts.Attr = race.NewAttribution(a.Origins.Len())
			race.Detect(a, sh, g, opts)
		}
	})
}

// TestDetectProgressDisabledAllocFree pins the allocation cost of the
// disabled flight-recorder path: a sequential Detect with Progress and
// Attr nil must allocate exactly as little as it did before the hooks
// existed. The detect hot path is allocation-free by construction (the
// pair buffer is reused across groups), so the budget is a handful of
// fixed setup allocations — any per-pair or per-stride allocation from
// the progress/attribution plumbing blows it immediately.
func TestDetectProgressDisabledAllocFree(t *testing.T) {
	entries := ir.DefaultEntryConfig()
	p, ok := workload.ByName("avrora")
	if !ok {
		t.Fatal("avrora preset missing")
	}
	prog := workload.Build(p, entries)
	a := pta.New(prog, pta.Config{Policy: bench.POPA, Entries: entries, ReplicateEvents: true})
	if err := a.Solve(); err != nil {
		t.Fatal(err)
	}
	sh := osa.Analyze(a)
	g := shb.Build(a, shb.Config{})
	opts := race.O2Options()
	opts.Workers = 1
	race.Detect(a, sh, g, opts) // warm the reach cache and lockset canon
	allocs := testing.AllocsPerRun(10, func() {
		race.Detect(a, sh, g, opts)
	})
	// Report + group bookkeeping for the warm run; measured ~68 on a quiet
	// run, pinned with headroom against process-global noise. A single
	// per-pair allocation would add hundreds (avrora checks >200 pairs)
	// and trip the pin at once.
	const budget = 96
	if allocs > budget {
		t.Fatalf("sequential Detect with progress disabled: %.0f allocs/run > budget %d", allocs, budget)
	}
}

// benchSource builds the scheduler benchmarks' minilang input: n racy
// thread classes sharing one field (quadratic pair growth, like the
// sched package's generator).
func benchSource(n, seed int) string {
	var b []byte
	b = append(b, "class S { field data; }\n"...)
	for i := 0; i < n; i++ {
		b = append(b, fmt.Sprintf("class W%d_%d { field s; W%d_%d(s) { this.s = s; } run() { sh = this.s; sh.data = this; } }\n", seed, i, seed, i)...)
	}
	b = append(b, "main {\n  s = new S();\n"...)
	for i := 0; i < n; i++ {
		b = append(b, fmt.Sprintf("  t%d = new W%d_%d(s);\n  t%d.start();\n", i, seed, i, i)...)
	}
	b = append(b, "}\n"...)
	return string(b)
}

// BenchmarkSchedulerThroughput measures batch throughput (jobs/s) across
// worker-pool sizes: each iteration submits a wave of distinct programs
// (caching disabled) and drains it. With GOMAXPROCS=1 the worker counts
// tie; on multicore hosts throughput tracks the pool size until the
// admission queue or the core count saturates.
func BenchmarkSchedulerThroughput(b *testing.B) {
	const wave = 16
	srcs := make([]string, wave)
	for i := range srcs {
		srcs[i] = benchSource(8, i)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s := sched.New(sched.Options{Workers: workers, QueueDepth: wave + 1, CacheEntries: -1})
			defer s.Shutdown(context.Background())
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				jobs := make([]*sched.Job, wave)
				for k, src := range srcs {
					j, err := s.Submit(sched.Request{Files: map[string]string{"in.mini": src}, Config: o2.DefaultConfig()})
					if err != nil {
						b.Fatal(err)
					}
					jobs[k] = j
				}
				for _, j := range jobs {
					<-j.Done()
					if j.State() != sched.Done {
						b.Fatalf("job failed: %v", j.Err())
					}
				}
			}
			b.ReportMetric(float64(b.N*wave)/time.Since(start).Seconds(), "jobs/s")
		})
	}
}

// BenchmarkSchedulerCacheHit measures the warm-hit path: submit → sha256
// key → LRU lookup → instantly-done job. The cold analysis this replaces
// is 2–4 orders of magnitude slower (see EXPERIMENTS.md).
func BenchmarkSchedulerCacheHit(b *testing.B) {
	s := sched.New(sched.Options{Workers: 1})
	defer s.Shutdown(context.Background())
	r := sched.Request{Files: map[string]string{"in.mini": benchSource(8, 0)}, Config: o2.DefaultConfig()}
	j, err := s.Submit(r)
	if err != nil {
		b.Fatal(err)
	}
	<-j.Done()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := s.Submit(r)
		if err != nil {
			b.Fatal(err)
		}
		<-j.Done()
		if !j.Summary().Cached {
			b.Fatal("miss on warm cache")
		}
	}
}

// BenchmarkExtensions measures the beyond-race-detection analyses
// (deadlock, over-synchronization) on a distributed-system preset.
func BenchmarkExtensions(b *testing.B) {
	entries := ir.DefaultEntryConfig()
	p, _ := workload.ByName("zookeeper")
	prog := workload.Build(p, entries)
	pr := bench.RunPTA(prog, bench.POPA, entries, 0)
	sh := osa.Analyze(pr.A)
	g := shb.Build(pr.A, shb.Config{})
	b.Run("deadlock", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			deadlock.Analyze(pr.A, g)
		}
	})
	b.Run("oversync", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			oversync.Analyze(pr.A, sh, g)
		}
	})
}
