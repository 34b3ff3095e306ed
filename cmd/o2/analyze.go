package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"o2"
	"o2/internal/lang"
	"o2/internal/obs"
	"o2/internal/race"
	"o2/internal/workload"
)

// runAnalyze is the classic single-program CLI (also reachable as
// `o2 analyze`).
func runAnalyze(args []string) int {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	ctxKind := fs.String("context", "origin", "context policy: origin, 0ctx, kcfa, kobj")
	k := fs.Int("k", 1, "context depth")
	workers := fs.Int("workers", 0, "detection worker-pool size (0 = GOMAXPROCS, 1 = sequential)")
	android := fs.Bool("android", false, "Android mode: serialize event handlers")
	replicate := fs.Bool("replicate-events", false, "treat event handlers as concurrently re-entrant")
	timeBudget := fs.Duration("time-budget", 0, "abort the analysis after this long (0 = unlimited)")
	sharing := fs.Bool("sharing", false, "print the origin-sharing (OSA) report")
	origins := fs.Bool("origins", false, "print discovered origins and attributes")
	stats := fs.Bool("stats", false, "print analysis statistics")
	asJSON := fs.Bool("json", false, "emit the race report as JSON")
	explainJSON := fs.Bool("explain-json", false, "emit machine-readable race witnesses as versioned JSON (overrides -json)")
	statsJSON := fs.String("stats-json", "", "write the RunStats observability report to this file")
	traceOut := fs.String("trace-out", "", "write a Chrome trace_event JSON file of the span tree (open in Perfetto)")
	traceSpans := fs.Bool("trace-spans", false, "print the phase span tree to stderr")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile to this file")
	deadlocks := fs.Bool("deadlock", false, "also run the lock-order deadlock analysis")
	explain := fs.Bool("explain", false, "print a witness for each race (spawn sites, locksets, ordering)")
	dumpIR := fs.Bool("dump-ir", false, "dump the lowered IR and exit")
	oversyncF := fs.Bool("oversync", false, "also report lock regions guarding only origin-local data")
	preset := fs.String("preset", "", "analyze a built-in benchmark preset (e.g. zookeeper) instead of source files")
	progressF := fs.Bool("progress", false, "stream live phase/pair progress to stderr while the analysis runs")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}

	if fs.NArg() == 0 && *preset == "" {
		fmt.Fprintln(os.Stderr, "usage: o2 [flags] file.mini ...")
		fs.PrintDefaults()
		return exitUsage
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(exitInternal, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(exitInternal, err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "o2:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "o2:", err)
			}
		}()
	}

	cfg := o2.DefaultConfig()
	cfg.Android = *android
	cfg.ReplicateEvents = *replicate
	cfg.Workers = *workers
	cfg.TimeBudget = *timeBudget
	var reg *obs.Registry
	if *statsJSON != "" || *traceSpans || *traceOut != "" {
		reg = obs.New()
		cfg.Obs = reg
	}
	pol, err := o2.PolicyByName(*ctxKind, *k)
	if err != nil {
		return fail(exitUsage, err)
	}
	cfg.Policy = pol
	if *progressF {
		stop := startProgress(&cfg)
		defer stop()
	}

	var res *o2.Result
	if *preset != "" {
		p, ok := workload.ByName(*preset)
		if !ok {
			return fail(exitUsage, fmt.Errorf("unknown preset %q", *preset))
		}
		prog := workload.Build(p, cfg.Entries)
		if *dumpIR {
			prog.Print(os.Stdout)
			return exitOK
		}
		res, err = o2.Analyze(context.Background(), prog, cfg)
		if err != nil {
			return fail(exitCode(err), err)
		}
		return reportAnalyze(res, analyzeOutput{
			statsJSON: *statsJSON, traceOut: *traceOut, traceSpans: *traceSpans, reg: reg,
			origins: *origins, sharing: *sharing, stats: *stats, deadlocks: *deadlocks,
			oversync: *oversyncF, explain: *explain, explainJSON: *explainJSON, asJSON: *asJSON,
		})
	}

	files, err := readFiles(fs.Args())
	if err != nil {
		return fail(exitUsage, err)
	}
	if *dumpIR {
		// The one frontend that needs the compiled program itself rather
		// than an analysis of it.
		prog, err := lang.CompileFiles(files, cfg.Entries)
		if err != nil {
			return fail(exitParse, err)
		}
		prog.Print(os.Stdout)
		return exitOK
	}
	srcs := make([]o2.Source, 0, len(fs.Args()))
	for _, name := range fs.Args() {
		srcs = append(srcs, o2.Source{Name: name, Bytes: []byte(files[name])})
	}
	res, err = o2.AnalyzeSources(context.Background(), srcs, cfg)
	if err != nil {
		return fail(exitCode(err), err)
	}

	return reportAnalyze(res, analyzeOutput{
		statsJSON: *statsJSON, traceOut: *traceOut, traceSpans: *traceSpans, reg: reg,
		origins: *origins, sharing: *sharing, stats: *stats, deadlocks: *deadlocks,
		oversync: *oversyncF, explain: *explain, explainJSON: *explainJSON, asJSON: *asJSON,
	})
}

// startProgress wires a live Progress into cfg and spawns a ticker that
// repaints one status line on stderr until the returned stop function
// runs (which prints the final snapshot and a newline). Progress never
// alters analysis results; it only feeds this display.
func startProgress(cfg *o2.Config) (stop func()) {
	p := obs.NewProgress()
	cfg.Progress = p
	paint := func(nl string) {
		snap := p.Snapshot()
		fmt.Fprintf(os.Stderr, "\r\x1b[K%-6s %5.1f%%  pairs %d/%d  races %d%s",
			snap.Phase, snap.Percent, snap.PairsDone, snap.PairsTotal, snap.Races, nl)
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				paint("")
			}
		}
	}()
	return func() {
		close(done)
		<-finished
		paint("\n")
	}
}

// analyzeOutput carries the report-rendering flags shared by the file
// and preset frontends of `o2 analyze`.
type analyzeOutput struct {
	statsJSON, traceOut          string
	traceSpans                   bool
	reg                          *obs.Registry
	origins, sharing, stats      bool
	deadlocks, oversync          bool
	explain, explainJSON, asJSON bool
}

// reportAnalyze renders every requested view of a finished analysis and
// returns the process exit code.
func reportAnalyze(res *o2.Result, out analyzeOutput) int {
	statsJSON, traceOut, traceSpans, reg := out.statsJSON, out.traceOut, out.traceSpans, out.reg

	if statsJSON != "" {
		if err := res.RunStats.WriteFile(statsJSON); err != nil {
			return fail(exitInternal, err)
		}
	}
	if traceOut != "" {
		if err := res.RunStats.WriteTraceFile(traceOut); err != nil {
			return fail(exitInternal, err)
		}
	}
	if traceSpans {
		reg.WriteSpans(os.Stderr)
	}

	if out.origins {
		fmt.Println("origins:")
		for _, org := range res.Analysis.Origins.Origins {
			fmt.Printf("  %s attrs=%s\n", org, res.Analysis.OriginAttrs(org.ID))
		}
		fmt.Println()
	}
	if out.sharing {
		fmt.Printf("origin-shared locations (%d):\n", len(res.Sharing.Shared))
		for _, key := range res.Sharing.Shared {
			origins := res.Sharing.OriginsOf(key)
			names := make([]string, len(origins))
			for i, o := range origins {
				names[i] = res.Analysis.Origins.Get(o).String()
			}
			sort.Strings(names)
			fmt.Printf("  %-24s shared by %v\n", key, names)
		}
		fmt.Println()
	}
	if out.stats {
		st := res.Analysis.Stats()
		fmt.Printf("stats: %s\n", st)
		fmt.Printf("times: pta=%v osa=%v shb=%v detect=%v total=%v\n",
			res.PTATime, res.OSATime, res.SHBTime, res.DetectTime, res.TotalTime())
		fmt.Printf("shb: %s, %d lock regions\n", res.Graph, res.Graph.Regions)
		fmt.Println()
	}

	if out.deadlocks {
		rep := res.Deadlocks()
		fmt.Printf("deadlock analysis: %d lock-order edges, %d warnings\n", rep.Edges, len(rep.Warnings))
		for _, w := range rep.Warnings {
			fmt.Println(w.String())
		}
		fmt.Println()
	}
	if out.oversync {
		rep := res.OverSync()
		fmt.Printf("over-synchronization: %d regions, %d useful, %d unnecessary\n",
			rep.Regions, rep.UsefulRegions, len(rep.Warnings))
		for _, w := range rep.Warnings {
			fmt.Println("  " + w.String())
		}
		fmt.Println()
	}

	races := res.Races()
	if out.explainJSON {
		// The machine-readable witness report: one versioned Witness per
		// race (origin spawn chains, lockset derivation, HB-absence
		// evidence). Byte-stable for a fixed input — golden-tested over
		// the truth corpus.
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(race.Witnesses(res.Analysis, res.Graph, res.Report)); err != nil {
			return fail(exitInternal, err)
		}
		if len(races) > 0 {
			return exitRaces
		}
		return exitOK
	}
	if out.asJSON {
		type jsonAccess struct {
			Op     string `json:"op"`
			Pos    string `json:"pos"`
			Fn     string `json:"fn"`
			Origin string `json:"origin"`
		}
		type jsonRace struct {
			Location string     `json:"location"`
			A        jsonAccess `json:"a"`
			B        jsonAccess `json:"b"`
		}
		out := make([]jsonRace, len(races))
		for i, r := range races {
			out[i] = jsonRace{
				Location: r.Key.String(),
				A:        jsonAccess{op(r.A.Write), r.A.Pos.String(), r.A.Fn, res.Analysis.Origins.Get(r.A.Origin).String()},
				B:        jsonAccess{op(r.B.Write), r.B.Pos.String(), r.B.Fn, res.Analysis.Origins.Get(r.B.Origin).String()},
			}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return fail(exitInternal, err)
		}
	} else {
		if len(races) == 0 {
			fmt.Println("no races detected")
		}
		for i, r := range races {
			if out.explain {
				fmt.Printf("race #%d %s\n", i+1, race.Explain(res.Analysis, res.Graph, &r))
			} else {
				fmt.Printf("race #%d %s\n", i+1, r.String())
			}
		}
	}
	if len(races) > 0 {
		return exitRaces
	}
	return exitOK
}
