package o2

import (
	"context"
	"errors"
	"testing"
	"time"

	"o2/internal/cases"
	"o2/internal/lang"
	"o2/internal/obs"
	"o2/internal/workload"
)

// TestAnalyzeAlreadyCanceled: a context canceled before Analyze starts
// returns ErrCanceled without running any phase.
func TestAnalyzeAlreadyCanceled(t *testing.T) {
	prog, err := lang.Compile("fig2.mini", cases.Figure2, DefaultConfig().Entries)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = Analyze(ctx, prog, DefaultConfig())
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ErrCanceled must satisfy errors.Is(err, context.Canceled); got %v", err)
	}
}

// TestAnalyzeDeadlineIsBudget: an expired deadline maps onto ErrBudget —
// callers observe one error class for both TimeBudget and context
// deadlines.
func TestAnalyzeDeadlineIsBudget(t *testing.T) {
	prog, err := lang.Compile("fig2.mini", cases.Figure2, DefaultConfig().Entries)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err = Analyze(ctx, prog, DefaultConfig())
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget for expired deadline, got %v", err)
	}
}

// TestTimeBudgetStillBudget: the legacy TimeBudget knob (now a derived
// context deadline) still aborts long runs with ErrBudget.
func TestTimeBudgetStillBudget(t *testing.T) {
	prog := workload.Build(workload.Scale(workload.Linux(), 4), DefaultConfig().Entries)
	cfg := DefaultConfig()
	cfg.TimeBudget = 5 * time.Millisecond
	_, err := Analyze(context.Background(), prog, cfg)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget from TimeBudget, got %v", err)
	}
}

// TestCancelMidSolve: canceling while the pointer analysis is running
// returns promptly (well under the 100ms bound) with ErrCanceled.
func TestCancelMidSolve(t *testing.T) {
	// linux preset: solve alone takes tens of milliseconds, so canceling
	// after 5ms lands inside the solver step loop.
	prog := workload.Build(workload.Linux(), DefaultConfig().Entries)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := Analyze(ctx, prog, DefaultConfig())
	elapsed := time.Since(start)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v (after %v)", err, elapsed)
	}
	if elapsed > 5*time.Millisecond+100*time.Millisecond {
		t.Fatalf("cancellation not prompt: returned after %v", elapsed)
	}
}

// TestCancelMidDetect: canceling while the race-detection pair loop is
// running (the longest phase on linux-x4) returns within 100ms.
func TestCancelMidDetect(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second workload")
	}
	lat := cancelInPairLoop(t, DefaultConfig())
	if lat > 100*time.Millisecond {
		t.Fatalf("cancellation latency %v exceeds 100ms", lat)
	}
	t.Logf("cancellation latency %v", lat)
}

// TestCancelMidDetectParallel: same as above with a worker pool, proving
// the canceled latch stops all workers.
func TestCancelMidDetectParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second workload")
	}
	cfg := DefaultConfig()
	cfg.Workers = 4
	if lat := cancelInPairLoop(t, cfg); lat > 100*time.Millisecond {
		t.Fatalf("cancellation latency %v exceeds 100ms", lat)
	}
}

// cancelInPairLoop analyzes linux-x4 under cfg and cancels the context
// once race detection reports half of its pairs examined, so the
// cancellation lands in the middle of the pairwise loop however fast the
// machine is. It requires ErrCanceled and returns the time from the
// cancel to Analyze's return.
func cancelInPairLoop(t *testing.T, cfg Config) time.Duration {
	t.Helper()
	prog := workload.Build(workload.Scale(workload.Linux(), 4), cfg.Entries)
	progress := obs.NewProgress()
	cfg.Progress = progress
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	canceledAt := make(chan time.Time, 1)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			if s := progress.Snapshot(); s.PairsTotal > 0 && 2*s.PairsDone >= s.PairsTotal {
				canceledAt <- time.Now()
				cancel()
				return
			}
		}
	}()
	start := time.Now()
	_, err := Analyze(ctx, prog, cfg)
	end := time.Now()
	select {
	case at := <-canceledAt:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("want ErrCanceled, got %v (after %v)", err, end.Sub(start))
		}
		return end.Sub(at)
	default:
		// The workload finished before the pair loop was seen halfway —
		// the test would prove nothing about mid-detect cancellation.
		t.Fatalf("analysis returned %v after %v before the pair loop was seen halfway; scale the workload up", err, end.Sub(start))
		return 0
	}
}

// fig2 is the Figure 2 program as a one-source input.
var fig2 = []Source{{Name: "fig2.mini", Bytes: []byte(cases.Figure2)}}

// TestAnalyzeSourceCtxCancel: the source-level entry point, AnalyzeSources,
// honors the context too (cancellation during analysis, after a
// successful compile).
func TestAnalyzeSourceCtxCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := AnalyzeSources(ctx, fig2, DefaultConfig())
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

// TestUncanceledRunUnaffected: a background context changes nothing — the
// Figure 2 race is still found.
func TestUncanceledRunUnaffected(t *testing.T) {
	res, err := AnalyzeSources(context.Background(), fig2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Races()) != 1 {
		t.Fatalf("want 1 race on Figure 2, got %d", len(res.Races()))
	}
}
