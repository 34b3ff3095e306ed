// Package o2 is a reproduction of "When Threads Meet Events: Efficient and
// Precise Static Race Detection with Origins" (PLDI 2021). It detects data
// races in multithreaded and event-driven minilang programs through the
// pipeline described in the paper:
//
//  1. origin-sensitive pointer analysis (OPA) — or a baseline context
//     policy (0-ctx, k-CFA, k-obj) for comparison;
//  2. origin-sharing analysis (OSA), computing the heap locations shared
//     across origins;
//  3. a static happens-before (SHB) graph over origin traces;
//  4. a hybrid happens-before + lockset race detector with the paper's
//     three sound optimizations.
//
// There are three entry points, all context-first: Analyze
// (programmatically built IR), AnalyzeSources (minilang text as typed
// Source values) and AnalyzeCorpus (a streamed corpus of independent
// programs, analyzed in parallel with input-ordered emission).
// Cancellation and deadlines propagate into every pipeline stage.
package o2

import (
	"context"
	"fmt"
	"sort"
	"time"

	"o2/internal/deadlock"
	"o2/internal/ir"
	"o2/internal/obs"
	"o2/internal/osa"
	"o2/internal/oversync"
	"o2/internal/pta"
	"o2/internal/race"
	"o2/internal/shb"
)

// Sentinel errors of the analysis pipeline. ErrBudget is returned when a
// step budget, the TimeBudget-derived deadline, or a caller-supplied
// context deadline is exceeded (errors.Is against pta.ErrBudget holds).
// ErrCanceled is returned when the caller's context is canceled
// mid-analysis (errors.Is against context.Canceled holds).
var (
	ErrBudget   = pta.ErrBudget
	ErrCanceled = pta.ErrCanceled
)

// Re-exported context policies for configuration convenience.
var (
	// Origins is the paper's 1-origin configuration (OPA).
	Origins = pta.Policy{Kind: pta.KOrigin, K: 1}
	// Insensitive is the 0-ctx baseline.
	Insensitive = pta.Policy{Kind: pta.Insensitive}
)

// CFA returns a k-call-site-sensitive policy.
func CFA(k int) pta.Policy { return pta.Policy{Kind: pta.KCFA, K: k} }

// Obj returns a k-object-sensitive policy.
func Obj(k int) pta.Policy { return pta.Policy{Kind: pta.KObj, K: k} }

// OriginsK returns a k-origin-sensitive policy for nested origins (§3.2,
// K-Origin-Sensitivity).
func OriginsK(k int) pta.Policy { return pta.Policy{Kind: pta.KOrigin, K: k} }

// PolicyByName resolves the CLI / service spelling of a context policy
// ("origin", "0ctx", "kcfa", "kobj") with depth k. Shared by cmd/o2 and
// the batch-analysis server so both accept the same configuration.
func PolicyByName(name string, k int) (pta.Policy, error) {
	if k <= 0 {
		k = 1
	}
	switch name {
	case "", "origin":
		return pta.Policy{Kind: pta.KOrigin, K: k}, nil
	case "0ctx":
		return pta.Policy{Kind: pta.Insensitive}, nil
	case "kcfa":
		return pta.Policy{Kind: pta.KCFA, K: k}, nil
	case "kobj":
		return pta.Policy{Kind: pta.KObj, K: k}, nil
	}
	return pta.Policy{}, fmt.Errorf("unknown context policy %q", name)
}

// Config configures a full analysis run.
type Config struct {
	// Policy selects the pointer-analysis context abstraction.
	Policy pta.Policy
	// Entries configures origin entry points (defaults to Table 1).
	Entries ir.EntryConfig
	// Android serializes event handlers with a global lock (§4.2).
	Android bool
	// ReplicateEvents treats event origins as concurrently re-entrant.
	ReplicateEvents bool
	// Detector toggles the engine optimizations; zero value is upgraded to
	// full O2 options.
	Detector race.Options
	// Workers sets the race-detection worker-pool size (0 = GOMAXPROCS,
	// 1 = sequential). The report is identical for every worker count.
	Workers int
	// StepBudget / TimeBudget bound the pointer analysis (0 = unlimited);
	// exceeding either aborts with pta.ErrBudget.
	StepBudget int64
	TimeBudget time.Duration
	// MaxSHBNodes bounds the SHB trace size (0 = unlimited).
	MaxSHBNodes int
	// Obs enables the observability layer: every phase runs under a span,
	// the pipeline publishes its counters into the registry, and
	// Result.RunStats carries the frozen report (including the per-origin
	// Introspection section). Nil disables collection at near-zero cost
	// (see internal/obs).
	Obs *obs.Registry
	// Progress, when set, receives live pipeline progress: phase
	// transitions from the driver and examined-pair/race counts flushed
	// from the detection hot loop on its cancel-poll stride. Readers call
	// Progress.Snapshot concurrently (see internal/obs). Progress never
	// alters results and, like Obs, is excluded from Fingerprint.
	Progress *obs.Progress
}

// DefaultConfig is the paper's main configuration: 1-origin OPA with all
// detector optimizations. Event origins are not replicated by default;
// enable ReplicateEvents for servers whose handlers run concurrently
// (e.g. the Linux system-call model of §5.4).
func DefaultConfig() Config {
	return Config{
		Policy:   Origins,
		Entries:  ir.DefaultEntryConfig(),
		Detector: race.O2Options(),
	}
}

// Result bundles every stage's output and timing.
type Result struct {
	Prog     *ir.Program
	Analysis *pta.Analysis
	Sharing  *osa.Result
	Graph    *shb.Graph
	Report   *race.Report

	PTATime    time.Duration
	OSATime    time.Duration
	SHBTime    time.Duration
	DetectTime time.Duration

	// RunStats is the machine-readable run report (nil unless Config.Obs
	// was set): per-phase wall/CPU spans, PTA/OSA/SHB size counters,
	// cache hit rates and worker utilization.
	RunStats *obs.RunStats
}

// entriesUnset reports whether the config carries no entry-point
// configuration at all (then Table 1 defaults apply). An explicitly empty
// slice disables that origin kind instead.
func entriesUnset(e ir.EntryConfig) bool {
	return e.ThreadEntries == nil && e.EventEntries == nil &&
		e.StartMethods == nil && e.JoinMethods == nil
}

// Races returns the detected races.
func (r *Result) Races() []race.Race { return r.Report.Races }

// Deadlocks runs the lock-order deadlock analysis (a client of OPA and the
// SHB graph beyond race detection, §3).
func (r *Result) Deadlocks() *deadlock.Report {
	return deadlock.Analyze(r.Analysis, r.Graph)
}

// OverSync runs the over-synchronization analysis: lock regions guarding
// only origin-local data.
func (r *Result) OverSync() *oversync.Report {
	return oversync.Analyze(r.Analysis, r.Sharing, r.Graph)
}

// TotalTime is the end-to-end analysis time.
func (r *Result) TotalTime() time.Duration {
	return r.PTATime + r.OSATime + r.SHBTime + r.DetectTime
}

// normalize resolves the config's defaulting rules into an explicit,
// ready-to-run form: unset entry points become the Table 1 defaults, a
// zero-value Detector (ignoring Workers and Obs, which are orthogonal
// knobs) is upgraded to the full O2 optimization set, and the top-level
// Workers and Obs fields override their Detector counterparts. normalize
// is idempotent.
func (c Config) normalize() Config {
	if entriesUnset(c.Entries) {
		c.Entries = ir.DefaultEntryConfig()
	}
	base := c.Detector
	base.Workers = 0
	base.Obs = nil
	base.Progress = nil
	base.Attr = nil
	if base == (race.Options{}) {
		workers := c.Detector.Workers
		obsReg := c.Detector.Obs
		prog := c.Detector.Progress
		attr := c.Detector.Attr
		c.Detector = race.O2Options()
		c.Detector.Workers = workers
		c.Detector.Obs = obsReg
		c.Detector.Progress = prog
		c.Detector.Attr = attr
	}
	if c.Workers != 0 {
		c.Detector.Workers = c.Workers
	}
	if c.Obs != nil {
		c.Detector.Obs = c.Obs
	}
	if c.Progress != nil {
		c.Detector.Progress = c.Progress
	}
	return c
}

// Fingerprint returns a stable string identifying every configuration
// field that can change the analysis report: policy, entry points, event
// treatment, detector optimizations and budgets. Worker count, the
// observability registry and the progress tracker are deliberately
// excluded — the report is identical for every worker count, and
// observability never alters results. The batch scheduler keys its
// result cache on (source hash, Fingerprint).
func (c Config) Fingerprint() string {
	n := c.normalize()
	d := n.Detector
	return fmt.Sprintf("v2|pol=%d.%d|e=%s|android=%t|rep=%t|det=%t%t%t%t%t%t|pb=%d|sb=%d|tb=%d|shb=%d",
		n.Policy.Kind, n.Policy.K, entriesFingerprint(n.Entries), n.Android, n.ReplicateEvents,
		d.RegionMerge, d.CanonicalLocksets, d.HBCache, d.OSAFilter, d.NoHB, d.NoLockset,
		d.PairBudget, n.StepBudget, int64(n.TimeBudget), n.MaxSHBNodes)
}

func entriesFingerprint(e ir.EntryConfig) string {
	part := func(ss []string) string {
		s := append([]string(nil), ss...)
		sort.Strings(s)
		return fmt.Sprint(s)
	}
	return part(e.ThreadEntries) + part(e.EventEntries) + part(e.StartMethods) +
		part(e.JoinMethods) + part(e.WaitMethods) + part(e.NotifyMethods) +
		part(e.LockFuncs) + part(e.UnlockFuncs) +
		part(e.WgAddMethods) + part(e.WgDoneMethods) + part(e.WgWaitMethods)
}

// Analyze is the primary entry point: it runs the full pipeline (pointer
// analysis, origin-sharing, SHB construction, race detection) on a
// finalized IR program under a context. Cancellation propagates into
// every stage — the pta step loop, the OSA and SHB traversals and the
// race worker pool all poll the context and return within milliseconds of
// it ending. A canceled run returns (nil, ErrCanceled); an expired
// deadline returns (nil, ErrBudget). Config.TimeBudget is implemented as
// a derived context deadline covering the whole pipeline, so explicit
// budgets and caller deadlines share one mechanism.
func Analyze(ctx context.Context, prog *ir.Program, cfg Config) (*Result, error) {
	cfg = cfg.normalize()
	if cfg.TimeBudget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.TimeBudget)
		defer cancel()
	}
	if err := prog.Finalize(cfg.Entries); err != nil {
		return nil, err
	}

	root := cfg.Obs.StartSpan("analyze")
	defer root.End()
	// Phase floors for the progress percentage: entering a phase jumps to
	// its floor, and detect interpolates toward 100 by examined pairs.
	cfg.Progress.SetPhase("pta", 5)
	t0 := time.Now()
	a := pta.New(prog, pta.Config{
		Policy:          cfg.Policy,
		Entries:         cfg.Entries,
		ReplicateEvents: cfg.ReplicateEvents,
		StepBudget:      cfg.StepBudget,
		// TimeBudget is not forwarded: the derived deadline above bounds
		// the whole pipeline, not just the solver.
		Obs: cfg.Obs,
	})
	if err := a.SolveCtx(ctx); err != nil {
		return nil, err
	}
	if cfg.Obs != nil && cfg.Detector.Attr == nil {
		// Collect per-origin pair/HB/race counts for the Introspection
		// section whenever observability is on.
		cfg.Detector.Attr = race.NewAttribution(a.Origins.Len())
	}
	t1 := time.Now()
	cfg.Progress.SetPhase("osa", 45)
	sharing, err := osa.AnalyzeCtx(ctx, a, cfg.Obs)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	cfg.Progress.SetPhase("shb", 55)
	g, err := shb.BuildCtx(ctx, a, shb.Config{AndroidEvents: cfg.Android, MaxNodes: cfg.MaxSHBNodes, Obs: cfg.Obs})
	if err != nil {
		return nil, err
	}
	t3 := time.Now()
	cfg.Progress.SetPhase("detect", 65)
	rep, err := race.DetectCtx(ctx, a, sharing, g, cfg.Detector)
	if err != nil {
		return nil, err
	}
	t4 := time.Now()
	cfg.Progress.SetPhase("done", 100)
	root.End() // idempotent; close before snapshotting so the span is final

	res := &Result{
		Prog:     prog,
		Analysis: a,
		Sharing:  sharing,
		Graph:    g,
		Report:   rep,

		PTATime:    t1.Sub(t0),
		OSATime:    t2.Sub(t1),
		SHBTime:    t3.Sub(t2),
		DetectTime: t4.Sub(t3),
	}
	if cfg.Obs != nil {
		in := buildIntrospection(res, cfg.Detector.Attr)
		publishIntrospection(cfg.Obs, in)
		res.RunStats = cfg.Obs.Snapshot()
		res.RunStats.Introspection = in
	}
	return res, nil
}
