package sched

import (
	"context"
	"errors"
	"testing"
	"time"

	"o2"
)

// TestJobHistoryBounded runs jobHistory+n finished jobs, nearly all cache
// hits, past a running and a queued job: the table keeps exactly
// jobHistory finished jobs, forgets the n oldest, and never forgets a job
// that has not finished.
func TestJobHistoryBounded(t *testing.T) {
	const n = 10
	s := New(Options{Workers: 1, QueueDepth: 4})
	defer s.Shutdown(context.Background())

	first, err := s.Submit(req(racySrc))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, first)
	ids := []string{first.ID}

	running, err := s.Submit(Request{Files: map[string]string{"big.mini": genSource(320)}, Config: o2.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	for running.State() == Queued {
		time.Sleep(time.Millisecond)
	}
	queued, err := s.Submit(req(cleanSrc))
	if err != nil {
		t.Fatal(err)
	}
	for len(ids) < jobHistory+n {
		j, err := s.Submit(req(racySrc))
		if err != nil {
			t.Fatal(err)
		}
		if j.State() != Done {
			t.Fatalf("%s: state %s, want a cache hit", j.ID, j.State())
		}
		ids = append(ids, j.ID)
	}
	if running.State() != Running || queued.State() != Queued {
		t.Fatalf("blockers finished early: running=%s queued=%s", running.State(), queued.State())
	}

	st := s.Stats()
	if st.JobsEvicted != n {
		t.Fatalf("JobsEvicted = %d, want %d", st.JobsEvicted, n)
	}
	if st.JobsRetained != jobHistory+2 {
		t.Fatalf("JobsRetained = %d, want %d", st.JobsRetained, jobHistory+2)
	}
	finished := 0
	for _, j := range s.Jobs() {
		if j.State() == Done {
			finished++
		}
	}
	if finished != jobHistory {
		t.Fatalf("table holds %d finished jobs, want %d", finished, jobHistory)
	}
	for i, id := range ids {
		_, err := s.Get(id)
		if evicted := i < n; evicted != errors.Is(err, ErrUnknownJob) {
			t.Fatalf("Get(%s) (job %d of %d) = %v", id, i, len(ids), err)
		}
	}
	for _, j := range []*Job{running, queued} {
		if got, err := s.Get(j.ID); err != nil || got != j {
			t.Fatalf("unfinished job %s forgotten: %v", j.ID, err)
		}
	}

	// Canceling the queued job retires it through the same path: it is
	// kept, and the oldest remaining finished job goes.
	if !s.Cancel(queued.ID) {
		t.Fatal("Cancel(queued) = false")
	}
	if _, err := s.Get(queued.ID); err != nil {
		t.Fatalf("canceled job forgotten at once: %v", err)
	}
	if _, err := s.Get(ids[n]); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Get(%s) after one more retirement = %v, want ErrUnknownJob", ids[n], err)
	}
	if got := s.Stats().JobsEvicted; got != n+1 {
		t.Fatalf("JobsEvicted = %d after the cancel, want %d", got, n+1)
	}
	s.Cancel(running.ID)
	waitDone(t, running)
}
