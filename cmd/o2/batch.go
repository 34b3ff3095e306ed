package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"o2"
	"o2/internal/corpus"
	"o2/internal/sched"
)

// runBatch analyzes a corpus of minilang programs (each file is one
// program). Inputs are discovered by shape — directories, zip archives,
// NDJSON manifests or plain .mini files — and streamed: the corpus is
// never materialized in memory.
//
// Two modes share that frontend:
//
//   - the default (eager) mode streams submissions into the job
//     scheduler through a bounded admission queue (-queue) and prints an
//     aggregate table once every job finished;
//   - -stream pipes the corpus through the streaming pipeline
//     (o2.AnalyzeCorpus) and emits one NDJSON record per program on
//     stdout, in input order, as results arrive.
//
// Either way the exit code is the worst per-program outcome: a corpus
// with one parse failure and ten clean programs exits 3, records/rows
// for the other ten are still produced (partial-failure contract).
func runBatch(args []string) int {
	fs := flag.NewFlagSet("batch", flag.ContinueOnError)
	ctxKind := fs.String("context", "origin", "context policy: origin, 0ctx, kcfa, kobj")
	k := fs.Int("k", 1, "context depth")
	jobs := fs.Int("jobs", 0, "concurrent analysis jobs (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "admission queue depth; submission blocks when full (0 = 64)")
	window := fs.Int("window", 0, "-stream reorder window in programs (0 = 2x jobs)")
	repeat := fs.Int("repeat", 1, "submit each program N times (exercises the result cache)")
	jobTimeout := fs.Duration("job-timeout", 0, "per-program deadline (0 = none)")
	stream := fs.Bool("stream", false, "emit one NDJSON record per program, in input order")
	runStats := fs.Bool("run-stats", false, "with -stream: attach the full RunStats report to every record")
	progressEvery := fs.Duration("progress-interval", 0, "with -stream: interleave a schema-tagged progress record at most this often (0 = off)")
	asJSON := fs.Bool("json", false, "emit the aggregate report as JSON (eager mode)")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: o2 batch [flags] dir|corpus.zip|manifest.ndjson|file.mini ...")
		fs.PrintDefaults()
		return exitUsage
	}

	cfg := o2.DefaultConfig()
	pol, err := o2.PolicyByName(*ctxKind, *k)
	if err != nil {
		return fail(exitUsage, err)
	}
	cfg.Policy = pol

	// openCorpus builds a fresh input stream over all arguments; -repeat
	// chains N passes so repeated programs re-enter the pipeline (and hit
	// the result cache) without holding anything in memory.
	openCorpus := func() (corpus.Iterator, error) {
		var parts []corpus.Iterator
		for rep := 0; rep < *repeat; rep++ {
			for _, arg := range fs.Args() {
				it, err := corpus.Open(arg)
				if err != nil {
					for _, p := range parts {
						p.Close()
					}
					return nil, err
				}
				parts = append(parts, it)
			}
		}
		return corpus.Chain(parts...), nil
	}

	it, err := openCorpus()
	if err != nil {
		return fail(exitUsage, err)
	}
	defer it.Close()

	if *stream {
		return runBatchStream(it, cfg, batchStreamOpts{
			jobs:          *jobs,
			window:        *window,
			timeout:       *jobTimeout,
			runStats:      *runStats,
			progressEvery: *progressEvery,
		})
	}
	return runBatchEager(it, cfg, batchEagerOpts{
		jobs:    *jobs,
		queue:   *queue,
		timeout: *jobTimeout,
		asJSON:  *asJSON,
	})
}

type batchEagerOpts struct {
	jobs, queue int
	timeout     time.Duration
	asJSON      bool
}

// runBatchEager streams discovery into the scheduler: SubmitWait blocks
// on the bounded admission queue, so a corpus of any length is throttled
// to the workers' pace instead of sized into the queue up front.
func runBatchEager(it corpus.Iterator, cfg o2.Config, opts batchEagerOpts) int {
	s := sched.New(sched.Options{
		Workers:        opts.jobs,
		QueueDepth:     opts.queue,
		DefaultTimeout: opts.timeout,
	})

	type item struct {
		path string
		job  *sched.Job
	}
	var items []item
	start := time.Now()
	for {
		src, ok, err := it.Next()
		if err != nil {
			s.Shutdown(context.Background())
			return fail(exitUsage, err)
		}
		if !ok {
			break
		}
		j, err := s.SubmitWait(context.Background(), sched.Request{
			Sources: []o2.Source{src},
			Config:  cfg,
			Label:   src.Name,
		})
		if err != nil {
			s.Shutdown(context.Background())
			return fail(exitInternal, err)
		}
		items = append(items, item{src.Name, j})
	}
	if len(items) == 0 {
		s.Shutdown(context.Background())
		return fail(exitUsage, fmt.Errorf("no %s programs found", corpus.Ext))
	}
	if err := s.Shutdown(context.Background()); err != nil {
		return fail(exitInternal, err)
	}
	wall := time.Since(start)

	worst := exitOK
	bump := func(code int) {
		if code > worst {
			worst = code
		}
	}
	views := make([]sched.View, len(items))
	for i, it := range items {
		views[i] = it.job.View()
		if views[i].State == sched.Done {
			if views[i].RaceCnt > 0 {
				bump(exitRaces)
			}
		} else {
			bump(kindExit(views[i].ErrKind))
		}
	}

	st := s.Stats()
	if opts.asJSON {
		out := struct {
			Jobs    []sched.View `json:"jobs"`
			WallNS  int64        `json:"wall_ns"`
			JobsSec float64      `json:"jobs_per_sec"`
			Stats   sched.Stats  `json:"scheduler"`
		}{views, int64(wall), float64(len(items)) / wall.Seconds(), st}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return fail(exitInternal, err)
		}
		return worst
	}

	fmt.Printf("%-40s %-9s %6s %12s %s\n", "PROGRAM", "STATE", "RACES", "WALL", "NOTE")
	for _, v := range views {
		note := ""
		if v.Error != "" {
			note = string(v.ErrKind) + ": " + firstLine(v.Error)
		} else if v.Summary != nil && v.Summary.Cached {
			note = "cached"
		}
		fmt.Printf("%-40s %-9s %6d %12s %s\n",
			trunc(v.Label, 40), v.State, v.RaceCnt, time.Duration(v.WallNS).Round(time.Microsecond), note)
	}
	fmt.Printf("\n%d jobs in %s (%.1f jobs/s, workers=%d, cache hits=%d/%d)\n",
		len(items), wall.Round(time.Millisecond), float64(len(items))/wall.Seconds(),
		st.Workers, st.CacheHits, st.CacheHits+st.CacheMisses)
	return worst
}

type batchStreamOpts struct {
	jobs, window  int
	timeout       time.Duration
	runStats      bool
	progressEvery time.Duration
}

// runBatchStream pipes the corpus through the streaming pipeline and
// emits one NDJSON record per program on stdout, strictly in input
// order, as results complete. Per-program failures become error records
// (exit_class parse/budget/...) and the stream continues; only iterator
// or stream-level failures abort it. A short human summary goes to
// stderr so stdout stays pure NDJSON.
func runBatchStream(it corpus.Iterator, cfg o2.Config, opts batchStreamOpts) int {
	ccfg := o2.CorpusConfig{
		Config:         cfg,
		Workers:        opts.jobs,
		Window:         opts.window,
		ProgramTimeout: opts.timeout,
		CollectStats:   opts.runStats,
	}

	worst := exitOK
	w := corpus.NewWriter(os.Stdout)
	// Progress records interleave with result records on the same single
	// emit goroutine, so the NDJSON stream stays strictly ordered; the
	// interval throttles them to at most one per completed program.
	start := time.Now()
	lastProg := start
	done, racesSoFar := 0, int64(0)
	stats, err := o2.AnalyzeCorpus(context.Background(), it, ccfg, func(cr o2.CorpusResult) error {
		rec := corpus.NewRecord(cr)
		if !opts.runStats {
			rec.RunStats = nil
		}
		if code := classExit(rec.ExitClass); code > worst {
			worst = code
		}
		if err := w.Write(rec); err != nil {
			return err
		}
		done++
		racesSoFar += int64(rec.RaceCount)
		if opts.progressEvery > 0 && time.Since(lastProg) >= opts.progressEvery {
			lastProg = time.Now()
			pr := &corpus.ProgressRecord{
				Schema:     corpus.RecordSchema,
				IsProgress: true,
				Done:       done,
				Index:      cr.Index,
				Program:    cr.Name,
				Races:      racesSoFar,
				WallNS:     int64(time.Since(start)),
			}
			return w.Write(pr)
		}
		return nil
	})
	if err != nil {
		return fail(exitCode(err), err)
	}
	if stats.Programs == 0 {
		return fail(exitUsage, fmt.Errorf("no %s programs found", corpus.Ext))
	}
	fmt.Fprintf(os.Stderr, "o2 batch: %d programs, %d failed, %d races in %s (%.1f programs/s)\n",
		stats.Programs, stats.Failed, stats.Races, stats.Wall.Round(time.Millisecond),
		float64(stats.Programs)/stats.Wall.Seconds())
	return worst
}

// classExit maps a streamed record's exit class onto the exit code —
// the per-program half of the partial-failure contract.
func classExit(class string) int {
	switch class {
	case corpus.ClassOK:
		return exitOK
	case corpus.ClassRaces:
		return exitRaces
	case corpus.ClassParse:
		return exitParse
	case corpus.ClassBudget:
		return exitBudget
	case corpus.ClassCanceled:
		return exitCanceled
	}
	return exitInternal
}

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return "..." + s[len(s)-n+3:]
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
