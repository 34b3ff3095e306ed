package sched

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"o2"
)

const racySrc = `
class S { field data; }
class W {
  field s;
  W(s) { this.s = s; }
  run() { sh = this.s; sh.data = this; }
}
main {
  s = new S();
  t1 = new W(s);
  t2 = new W(s);
  t1.start();
  t2.start();
}
`

const cleanSrc = `
class S { field data; }
class M { }
class W {
  field s; field m;
  W(s, m) { this.s = s; this.m = m; }
  run() { l = this.m; sync (l) { sh = this.s; sh.data = this; } }
}
main {
  s = new S();
  m = new M();
  t1 = new W(s, m);
  t2 = new W(s, m);
  t1.start();
  t2.start();
}
`

// genSource builds a program with n distinct racy thread classes — large
// enough that a cold analysis dwarfs a cache lookup.
func genSource(n int) string {
	var b strings.Builder
	b.WriteString("class S { field data; }\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "class W%d { field s; W%d(s) { this.s = s; } run() { sh = this.s; sh.data = this; } }\n", i, i)
	}
	b.WriteString("main {\n  s = new S();\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  t%d = new W%d(s);\n  t%d.start();\n", i, i, i)
	}
	b.WriteString("}\n")
	return b.String()
}

func req(src string) Request {
	return Request{Files: map[string]string{"in.mini": src}, Config: o2.DefaultConfig()}
}

func waitDone(t *testing.T, j *Job) {
	t.Helper()
	waitDoneWithin(t, j, 30*time.Second)
}

func waitDoneWithin(t *testing.T, j *Job, d time.Duration) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(d):
		t.Fatalf("job %s did not finish in %v", j.ID, d)
	}
}

func TestSubmitAndResult(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Shutdown(context.Background())

	j, err := s.Submit(req(racySrc))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if j.State() != Done {
		t.Fatalf("state = %s, err = %v", j.State(), j.Err())
	}
	if got := len(j.Summary().Races); got != 1 {
		t.Fatalf("want 1 race, got %d", got)
	}
	if j.Summary().Cached {
		t.Fatal("first run must not be cache-served")
	}

	clean, err := s.Submit(req(cleanSrc))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, clean)
	if got := len(clean.Summary().Races); got != 0 {
		t.Fatalf("clean program reported %d races", got)
	}
}

func TestParseErrorClassified(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Shutdown(context.Background())

	j, err := s.Submit(req("class { this is not minilang"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if j.State() != Failed {
		t.Fatalf("state = %s", j.State())
	}
	if !errors.Is(j.Err(), ErrParse) || j.ErrKind() != KindParse {
		t.Fatalf("want ErrParse/KindParse, got %v / %s", j.Err(), j.ErrKind())
	}
}

func TestCacheHitMissEviction(t *testing.T) {
	s := New(Options{Workers: 1, CacheEntries: 2})
	defer s.Shutdown(context.Background())

	run := func(src string) *Job {
		j, err := s.Submit(req(src))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		return j
	}

	a1 := run(racySrc)
	if a1.Summary().Cached {
		t.Fatal("cold run flagged cached")
	}
	a2 := run(racySrc)
	if !a2.Summary().Cached {
		t.Fatal("identical resubmission missed the cache")
	}
	if len(a2.Summary().Races) != len(a1.Summary().Races) {
		t.Fatal("cached summary differs from cold summary")
	}

	st := s.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", st.CacheHits, st.CacheMisses)
	}

	// Fill the 2-entry cache past capacity: racy, clean, gen → racy evicted.
	run(cleanSrc)
	run(genSource(3))
	if st := s.Stats(); st.CacheEvictions != 1 || st.CacheEntries != 2 {
		t.Fatalf("evictions/entries = %d/%d, want 1/2", st.CacheEvictions, st.CacheEntries)
	}
	if a3 := run(racySrc); a3.Summary().Cached {
		t.Fatal("evicted entry still served from cache")
	}
}

// TestCacheKeyConfigCollision: identical sources with different
// report-affecting configs must NOT share a cache entry, while
// report-neutral knobs (Workers, stats) must.
func TestCacheKeyConfigCollision(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Shutdown(context.Background())

	run := func(r Request) *Job {
		j, err := s.Submit(r)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		return j
	}

	base := req(racySrc)
	run(base)

	insensitive := req(racySrc)
	insensitive.Config.Policy = o2.Insensitive
	if j := run(insensitive); j.Summary().Cached {
		t.Fatal("different policy hit the origin-policy cache entry")
	}

	android := req(racySrc)
	android.Config.Android = true
	if j := run(android); j.Summary().Cached {
		t.Fatal("Android mode hit the non-Android cache entry")
	}

	workers := req(racySrc)
	workers.Config.Workers = 4
	if j := run(workers); !j.Summary().Cached {
		t.Fatal("worker count (report-neutral) caused a cache miss")
	}

	// Different filename, same content: a distinct program (positions
	// differ in the report), so it must miss.
	renamed := Request{Files: map[string]string{"other.mini": racySrc}, Config: o2.DefaultConfig()}
	if j := run(renamed); j.Summary().Cached {
		t.Fatal("renamed file hit the cache despite differing positions")
	}
}

// TestCacheWarmHitSpeedup asserts the headline cache property: a warm hit
// is at least 100× faster than the cold analysis it replaces.
func TestCacheWarmHitSpeedup(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Shutdown(context.Background())

	big := genSource(640)
	r := Request{Files: map[string]string{"big.mini": big}, Config: o2.DefaultConfig()}

	t0 := time.Now()
	j1, err := s.Submit(r)
	if err != nil {
		t.Fatal(err)
	}
	// The cold run ends by encoding 204,480 races with their witnesses
	// (211 MB of JSON), which takes over 20 s under the race detector.
	waitDoneWithin(t, j1, 5*time.Minute)
	cold := time.Since(t0)
	if j1.State() != Done {
		t.Fatalf("cold run failed: %v", j1.Err())
	}

	// Best-of-5 warm submissions, to keep scheduler jitter out of the
	// ratio. Each hit is checked through the hit counter: decoding the
	// 640-class summary of every job would take longer than the test.
	warm := time.Hour
	var j2 *Job
	for i := 0; i < 5; i++ {
		hits := s.Stats().CacheHits
		t1 := time.Now()
		j2, err = s.Submit(r)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j2)
		if d := time.Since(t1); d < warm {
			warm = d
		}
		if s.Stats().CacheHits != hits+1 {
			t.Fatal("resubmission missed the cache")
		}
	}
	if !j2.Summary().Cached {
		t.Fatal("cache-served summary not flagged cached")
	}
	if cold < 100*warm {
		t.Fatalf("warm hit not ≥100× faster: cold=%v warm=%v (%.0fx)", cold, warm, float64(cold)/float64(warm))
	}
	t.Logf("cold=%v warm=%v speedup=%.0fx", cold, warm, float64(cold)/float64(warm))
}

func TestBackpressure(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 1, CacheEntries: -1})
	defer s.Shutdown(context.Background())

	// Occupy the single worker with a long job, then fill the queue.
	long := Request{Files: map[string]string{"big.mini": genSource(320)}, Config: o2.DefaultConfig()}
	j1, err := s.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	// One of the next submissions lands in the queue; once both the worker
	// and the queue slot are taken, Submit must reject with ErrQueueFull.
	var sawFull bool
	for i := 0; i < 10 && !sawFull; i++ {
		_, err := s.Submit(req(racySrc))
		if errors.Is(err, ErrQueueFull) {
			sawFull = true
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if !sawFull {
		t.Fatal("queue never exerted backpressure")
	}
	if s.Stats().Rejected == 0 {
		t.Fatal("rejected counter not bumped")
	}
	waitDone(t, j1)
}

func TestCancelQueuedJob(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 4, CacheEntries: -1})
	defer s.Shutdown(context.Background())

	blocker, err := s.Submit(Request{Files: map[string]string{"big.mini": genSource(320)}, Config: o2.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(req(racySrc))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Cancel(queued.ID) {
		t.Fatal("Cancel(queued) = false")
	}
	waitDone(t, queued)
	if queued.State() != Canceled || queued.ErrKind() != KindCanceled {
		t.Fatalf("state=%s kind=%s", queued.State(), queued.ErrKind())
	}
	waitDone(t, blocker)
	if blocker.State() != Done {
		t.Fatalf("blocker state=%s err=%v", blocker.State(), blocker.Err())
	}
}

func TestCancelRunningJob(t *testing.T) {
	s := New(Options{Workers: 1, CacheEntries: -1})
	defer s.Shutdown(context.Background())

	j, err := s.Submit(Request{Files: map[string]string{"big.mini": genSource(320)}, Config: o2.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for it to leave the queue.
	for j.State() == Queued {
		time.Sleep(time.Millisecond)
	}
	if !s.Cancel(j.ID) {
		t.Fatal("Cancel(running) = false")
	}
	waitDone(t, j)
	if j.State() != Canceled {
		t.Fatalf("state=%s err=%v", j.State(), j.Err())
	}
	if !errors.Is(j.Err(), o2.ErrCanceled) {
		t.Fatalf("err=%v, want ErrCanceled", j.Err())
	}
}

func TestJobTimeoutIsBudget(t *testing.T) {
	s := New(Options{Workers: 1, CacheEntries: -1})
	defer s.Shutdown(context.Background())

	r := Request{Files: map[string]string{"big.mini": genSource(320)}, Config: o2.DefaultConfig(), Timeout: time.Millisecond}
	j, err := s.Submit(r)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if j.State() != Failed || j.ErrKind() != KindBudget {
		t.Fatalf("state=%s kind=%s err=%v", j.State(), j.ErrKind(), j.Err())
	}
}

func TestShutdownDrains(t *testing.T) {
	s := New(Options{Workers: 2, QueueDepth: 16, CacheEntries: -1})
	var jobs []*Job
	for i := 0; i < 6; i++ {
		j, err := s.Submit(req(racySrc))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		select {
		case <-j.Done():
		default:
			t.Fatalf("job %s not finished after drain", j.ID)
		}
		if j.State() != Done {
			t.Fatalf("job %s state=%s err=%v", j.ID, j.State(), j.Err())
		}
	}
	if _, err := s.Submit(req(racySrc)); !errors.Is(err, ErrShutdown) {
		t.Fatalf("Submit after shutdown: %v, want ErrShutdown", err)
	}
}

func TestShutdownDeadlineCancels(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 16, CacheEntries: -1})
	j, err := s.Submit(Request{Files: map[string]string{"big.mini": genSource(320)}, Config: o2.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	for j.State() == Queued {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	// The hard stop canceled the running job; it must still have drained.
	select {
	case <-j.Done():
	default:
		t.Fatal("running job not finished after hard shutdown")
	}
	if j.State() != Canceled {
		t.Fatalf("state=%s err=%v", j.State(), j.Err())
	}
}

func TestWaitAndGet(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Shutdown(context.Background())

	j, err := s.Submit(req(racySrc))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Wait(context.Background(), j.ID)
	if err != nil || got != j {
		t.Fatalf("Wait = %v, %v", got, err)
	}
	if _, err := s.Get("job-999999"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Get(unknown) = %v", err)
	}
	if _, err := s.Wait(context.Background(), "nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Wait(unknown) = %v", err)
	}
}

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want ErrKind
	}{
		{nil, KindNone},
		{fmt.Errorf("%w: boom", ErrParse), KindParse},
		{o2.ErrBudget, KindBudget},
		{o2.ErrCanceled, KindCanceled},
		{context.Canceled, KindCanceled},
		{errors.New("disk on fire"), KindInternal},
	} {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("Classify(%v) = %s, want %s", tc.err, got, tc.want)
		}
	}
}

// TestSchedulerStress hammers a small scheduler from many goroutines with
// a mix of cached, uncached, canceled and rejected submissions. Run under
// -race in CI.
func TestSchedulerStress(t *testing.T) {
	s := New(Options{Workers: 4, QueueDepth: 8, CacheEntries: 4})
	sources := []string{racySrc, cleanSrc, genSource(2), genSource(3), genSource(4), genSource(5)}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				j, err := s.Submit(req(sources[(g+i)%len(sources)]))
				if errors.Is(err, ErrQueueFull) {
					time.Sleep(time.Millisecond)
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				if i%7 == 0 {
					s.Cancel(j.ID)
				}
				if i%3 == 0 {
					waitDone(t, j)
				}
				s.Stats()
			}
		}(g)
	}
	wg.Wait()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Completed == 0 {
		t.Fatal("stress run completed nothing")
	}
	t.Logf("stress: %+v", st)
}

func TestSubmitSources(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Shutdown(context.Background())

	j, err := s.Submit(Request{
		Sources: []o2.Source{{Name: "in.mini", Bytes: []byte(racySrc)}},
		Config:  o2.DefaultConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if j.Label != "in.mini" {
		t.Fatalf("label = %q, want the source name", j.Label)
	}
	waitDone(t, j)
	if j.State() != Done || len(j.Summary().Races) != 1 {
		t.Fatalf("state=%s races=%d err=%v", j.State(), len(j.Summary().Races), j.Err())
	}

	_, err = s.Submit(Request{
		Sources: []o2.Source{
			{Name: "a.mini", Bytes: []byte(racySrc)},
			{Name: "a.mini", Bytes: []byte(cleanSrc)},
		},
		Config: o2.DefaultConfig(),
	})
	if !errors.Is(err, ErrParse) {
		t.Fatalf("duplicate source names: err = %v, want ErrParse", err)
	}
}

// fullQueue builds a 1-worker, depth-1 scheduler whose worker is pinned
// on a long job and whose queue token is held by a second job, so any
// further admission must wait.
func fullQueue(t *testing.T) (*Scheduler, *Job, *Job) {
	t.Helper()
	s := New(Options{Workers: 1, QueueDepth: 1, CacheEntries: -1})
	blocker, err := s.Submit(Request{Files: map[string]string{"big.mini": genSource(320)}, Config: o2.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	for blocker.State() == Queued {
		time.Sleep(time.Millisecond)
	}
	filler, err := s.Submit(req(racySrc))
	if err != nil {
		t.Fatal(err)
	}
	return s, blocker, filler
}

func TestSubmitWaitBlocksThenAdmits(t *testing.T) {
	s, blocker, filler := fullQueue(t)
	defer s.Shutdown(context.Background())

	// A deadline-bound SubmitWait on a full queue gives up with the
	// context's error — not ErrQueueFull, which is Submit's signal.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := s.SubmitWait(ctx, req(cleanSrc)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SubmitWait(full queue, deadline) = %v, want DeadlineExceeded", err)
	}

	done := make(chan *Job, 1)
	go func() {
		j, err := s.SubmitWait(context.Background(), req(cleanSrc))
		if err != nil {
			t.Error(err)
		}
		done <- j
	}()
	select {
	case <-done:
		if blocker.State() == Running {
			t.Fatal("SubmitWait returned while the queue was full")
		}
	case <-time.After(20 * time.Millisecond):
	}
	waitDone(t, blocker)
	var waited *Job
	select {
	case waited = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("SubmitWait never unblocked after the queue drained")
	}
	if waited == nil {
		t.Fatal("SubmitWait returned a nil job")
	}
	waitDone(t, filler)
	waitDone(t, waited)
	if waited.State() != Done {
		t.Fatalf("waited job state=%s err=%v", waited.State(), waited.Err())
	}
}

func TestSubmitWaitShutdownUnblocks(t *testing.T) {
	s, _, _ := fullQueue(t)

	errc := make(chan error, 1)
	go func() {
		_, err := s.SubmitWait(context.Background(), req(cleanSrc))
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; !errors.Is(err, ErrShutdown) {
		t.Fatalf("SubmitWait during shutdown = %v, want ErrShutdown", err)
	}
}
