package race_test

import (
	"sync"
	"testing"

	"o2/internal/race"
)

// TestParallelDetectHighWorkerCounts runs detection on a large generated
// workload with worker counts well above GOMAXPROCS. Run under
// `go test -race` this exercises the SHB frontier index, the
// lockset intersection cache and the shared pair-budget atomics.
func TestParallelDetectHighWorkerCounts(t *testing.T) {
	a, sh, g := solvePreset(t, "zookeeper")
	seqOpts := race.O2Options()
	seqOpts.Workers = 1
	seq := race.Detect(a, sh, g, seqOpts)
	for _, w := range []int{8, 16, 32} {
		opts := race.O2Options()
		opts.Workers = w
		rep := race.Detect(a, sh, g, opts)
		sameReport(t, "zookeeper", seq, rep)
	}
}

// TestConcurrentDetectSharedInputs stress-tests cache reuse: several
// goroutines run Detect concurrently on the same solved analysis and SHB
// graph, each itself parallel, and must all produce the sequential report.
// The reachability and lockset caches are shared mutable state between
// the calls, so this proves they are safe for reuse.
func TestConcurrentDetectSharedInputs(t *testing.T) {
	a, sh, g := solvePreset(t, "hdfs")
	seqOpts := race.O2Options()
	seqOpts.Workers = 1
	seq := race.Detect(a, sh, g, seqOpts)

	const callers = 6
	reports := make([]*race.Report, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := race.O2Options()
			opts.Workers = 4
			// Alternate option sets so different cache paths overlap.
			if i%2 == 1 {
				opts.RegionMerge = false
			}
			reports[i] = race.Detect(a, sh, g, opts)
		}(i)
	}
	wg.Wait()
	for i, rep := range reports {
		if i%2 == 1 {
			// Different options change counters but never the verdict.
			if len(rep.Races) != len(seq.Races) {
				t.Errorf("caller %d: %d races, want %d", i, len(rep.Races), len(seq.Races))
			}
			continue
		}
		sameReport(t, "hdfs/concurrent", seq, rep)
	}
}

// raceSet keys a report's races by location and unordered position pair.
func raceSet(rep *race.Report) map[string]bool {
	m := make(map[string]bool, len(rep.Races))
	for i := range rep.Races {
		r := &rep.Races[i]
		a, b := r.A.Pos.String(), r.B.Pos.String()
		if b < a {
			a, b = b, a
		}
		m[r.Key.String()+"|"+a+"|"+b] = true
	}
	return m
}

// TestTimeoutLowerBoundBothModes pins the PairBudget semantics: when the
// budget trips mid-detection, TimedOut is set, PairsChecked never exceeds
// the budget, and the reported races are a subset of the full result — in
// both sequential and parallel modes (completed workers' races are kept).
func TestTimeoutLowerBoundBothModes(t *testing.T) {
	a, sh, g := solvePreset(t, "zookeeper")
	fullOpts := race.O2Options()
	fullOpts.Workers = 1
	full := race.Detect(a, sh, g, fullOpts)
	if full.TimedOut {
		t.Fatal("unbudgeted run must not time out")
	}
	fullSet := raceSet(full)
	budget := full.PairsChecked / 3
	if budget == 0 {
		t.Fatalf("preset too small: %d pairs", full.PairsChecked)
	}

	for _, w := range []int{1, 4, 8} {
		opts := race.O2Options()
		opts.Workers = w
		opts.PairBudget = budget
		rep := race.Detect(a, sh, g, opts)
		if !rep.TimedOut {
			t.Errorf("workers=%d: budget %d of %d pairs should time out", w, budget, full.PairsChecked)
		}
		if rep.PairsChecked > budget {
			t.Errorf("workers=%d: PairsChecked %d exceeds budget %d", w, rep.PairsChecked, budget)
		}
		if len(rep.Races) == 0 {
			t.Errorf("workers=%d: truncated run should still report completed groups' races", w)
		}
		for key := range raceSet(rep) {
			if !fullSet[key] {
				t.Errorf("workers=%d: race %s not in the full result (not a lower bound)", w, key)
			}
		}
	}
}

// TestBudgetExactBoundary asserts a budget equal to the total pair count
// does not trip: the budget is a bound on work, not a strict limit that
// must always fire.
func TestBudgetExactBoundary(t *testing.T) {
	a, sh, g := solvePreset(t, "avrora")
	fullOpts := race.O2Options()
	fullOpts.Workers = 1
	full := race.Detect(a, sh, g, fullOpts)
	for _, w := range []int{1, 8} {
		opts := race.O2Options()
		opts.Workers = w
		opts.PairBudget = full.PairsChecked
		rep := race.Detect(a, sh, g, opts)
		if rep.TimedOut {
			t.Errorf("workers=%d: exact budget should not trip", w)
		}
		if rep.PairsChecked != full.PairsChecked {
			t.Errorf("workers=%d: PairsChecked %d, want %d", w, rep.PairsChecked, full.PairsChecked)
		}
	}
}
