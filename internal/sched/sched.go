// Package sched is the batch-analysis job scheduler: a bounded worker
// pool that runs full O2 pipelines as jobs, with per-job context
// deadlines and cancellation, an admission queue with backpressure, a
// graceful shutdown that drains in-flight jobs, and an LRU result cache
// keyed by (source hash, config fingerprint) so repeated submissions of
// unchanged programs complete in microseconds. A finished job keeps its
// summary only as compact JSON, encoded once, and the scheduler
// remembers the last jobHistory finished jobs. It is the engine behind
// `o2 serve` and `o2 batch` — the RacerD-style deployment shape of a
// static race detector analyzing many compilation units concurrently.
package sched

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"o2"
	"o2/internal/obs"
	"o2/internal/race"
)

// Sentinel errors of the scheduler.
var (
	// ErrQueueFull is returned by Submit when the admission queue is at
	// capacity — the backpressure signal. Callers should retry later
	// (HTTP clients see 429).
	ErrQueueFull = errors.New("sched: admission queue full")
	// ErrShutdown is returned by Submit after Shutdown started.
	ErrShutdown = errors.New("sched: scheduler is shut down")
	// ErrParse wraps minilang compile errors so clients can branch on the
	// failure class without string matching.
	ErrParse = errors.New("sched: parse error")
	// ErrUnknownJob is returned for job IDs the scheduler has never seen.
	ErrUnknownJob = errors.New("sched: unknown job")
)

// ErrKind classifies a job failure for exit codes and HTTP responses.
type ErrKind string

const (
	KindNone     ErrKind = ""         // no error
	KindParse    ErrKind = "parse"    // minilang compile error
	KindBudget   ErrKind = "budget"   // step/time budget or deadline exhausted
	KindCanceled ErrKind = "canceled" // job canceled (explicitly or by shutdown)
	KindInternal ErrKind = "internal" // anything else
	// KindTooLarge rejects a request before it becomes a job: its body
	// is over the server's size cap (HTTP 413).
	KindTooLarge ErrKind = "too_large"
)

// Classify maps an analysis error onto its ErrKind.
func Classify(err error) ErrKind {
	switch {
	case err == nil:
		return KindNone
	case errors.Is(err, ErrParse), errors.Is(err, o2.ErrCompile):
		return KindParse
	case errors.Is(err, o2.ErrBudget):
		return KindBudget
	case errors.Is(err, o2.ErrCanceled), errors.Is(err, context.Canceled):
		return KindCanceled
	}
	return KindInternal
}

// State is a job's lifecycle state.
type State string

const (
	Queued   State = "queued"
	Running  State = "running"
	Done     State = "done"   // analysis completed (races or not)
	Failed   State = "failed" // parse error, budget, internal error
	Canceled State = "canceled"
)

// Options configures a Scheduler.
type Options struct {
	// Workers is the worker-pool size (number of concurrently running
	// jobs). 0 defaults to GOMAXPROCS.
	Workers int
	// QueueDepth is the admission-queue capacity; submissions beyond it
	// fail with ErrQueueFull. 0 defaults to 64.
	QueueDepth int
	// CacheEntries bounds the LRU result cache (0 defaults to 128,
	// negative disables caching).
	CacheEntries int
	// DefaultTimeout is the per-job deadline applied when the request
	// carries none (0 = no deadline).
	DefaultTimeout time.Duration
	// CollectStats gives every job its own obs.Registry and attaches the
	// frozen RunStats report to the job summary.
	CollectStats bool
	// Log receives structured job-lifecycle events (submit, cache hit,
	// start, finish) with job/request IDs. Nil disables logging — every
	// log site is a single nil check, mirroring the obs layer's design.
	Log *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = 128
	}
	return o
}

// Request is one analysis submission: a set of minilang sources plus the
// analysis configuration. The Config's Obs field is ignored (jobs get
// their own registry when Options.CollectStats is set).
type Request struct {
	// Files maps filename to minilang source; all files compile into one
	// program.
	Files map[string]string
	// Sources is the typed alternative to Files (the o2.Source form every
	// frontend shares); when set and Files is nil, the sources become the
	// program's files. Duplicate names are a parse error at submission.
	Sources []o2.Source
	// Config is the analysis configuration.
	Config o2.Config
	// Timeout overrides Options.DefaultTimeout for this job (0 = use the
	// scheduler default).
	Timeout time.Duration
	// Label is a caller-chosen display name (defaults to the first file).
	Label string
	// RequestID is the originating HTTP request's ID (empty for direct
	// submissions). It is propagated into the job's context (see
	// RequestIDFrom), carried on the Job, echoed in views and attached to
	// every log event, so a trace can be followed end to end.
	RequestID string
}

// requestIDKey is the context key carrying the originating request ID.
type requestIDKey struct{}

// WithRequestID returns a context carrying the request ID.
func WithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestIDFrom extracts the request ID threaded through a job's context
// ("" when absent) — available to any pipeline stage run under the job.
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// RaceAccess is one side of a reported race, rendered for transport.
type RaceAccess struct {
	Op     string `json:"op"`
	Pos    string `json:"pos"`
	Fn     string `json:"fn"`
	Origin string `json:"origin"`
}

// RaceInfo is one reported race, rendered for transport, with the full
// machine-readable witness (spawn chains, lockset derivation, HB-absence
// evidence) so API clients can triage without re-running the analysis.
type RaceInfo struct {
	Location string        `json:"location"`
	A        RaceAccess    `json:"a"`
	B        RaceAccess    `json:"b"`
	Witness  *race.Witness `json:"witness,omitempty"`
}

// Summary is a job's result: the race report projected onto plain data
// (the full o2.Result holds the whole points-to state and is not retained
// by the scheduler), phase timings, and the observability report.
type Summary struct {
	Races    []RaceInfo    `json:"races"`
	TimedOut bool          `json:"timed_out,omitempty"` // pair budget tripped: races are a lower bound
	PTANS    int64         `json:"pta_ns"`
	OSANS    int64         `json:"osa_ns"`
	SHBNS    int64         `json:"shb_ns"`
	DetectNS int64         `json:"detect_ns"`
	TotalNS  int64         `json:"total_ns"`
	Stats    *obs.RunStats `json:"stats,omitempty"`
	// Cached reports that this summary was served from the result cache;
	// the timings are those of the original (cold) run. It stays the
	// last field: the cache splices it in before the closing brace.
	Cached bool `json:"cached,omitempty"`
}

func summarize(res *o2.Result) *Summary {
	s := &Summary{
		Races:    []RaceInfo{},
		TimedOut: res.Report.TimedOut,
		PTANS:    int64(res.PTATime),
		OSANS:    int64(res.OSATime),
		SHBNS:    int64(res.SHBTime),
		DetectNS: int64(res.DetectTime),
		TotalNS:  int64(res.TotalTime()),
		Stats:    res.RunStats,
	}
	races := res.Races()
	witnesses := race.Witnesses(res.Analysis, res.Graph, res.Report)
	for i := range races {
		r := &races[i]
		mk := func(write bool, pos, fn string, origin string) RaceAccess {
			op := "read"
			if write {
				op = "write"
			}
			return RaceAccess{Op: op, Pos: pos, Fn: fn, Origin: origin}
		}
		s.Races = append(s.Races, RaceInfo{
			Location: r.Key.String(),
			A:        mk(r.A.Write, r.A.Pos.String(), r.A.Fn, res.Analysis.Origins.Get(r.A.Origin).String()),
			B:        mk(r.B.Write, r.B.Pos.String(), r.B.Fn, res.Analysis.Origins.Get(r.B.Origin).String()),
			Witness:  witnesses[i],
		})
	}
	return s
}

// result is a finished job's summary as it is kept: the compact JSON
// encoding, produced once, and the race count the views report beside
// it. The bytes are immutable, so jobs served from one cache entry share
// them.
type result struct {
	json  []byte // nil unless the job is Done
	races int
}

// decodeSummary decodes a stored summary (nil for none).
func decodeSummary(b []byte) *Summary {
	if b == nil {
		return nil
	}
	sum := new(Summary)
	if err := json.Unmarshal(b, sum); err != nil {
		panic(fmt.Sprintf("sched: stored summary does not decode: %v", err))
	}
	return sum
}

// Job is one scheduled analysis. All accessors are safe for concurrent
// use; Done() closes when the job reaches a terminal state.
type Job struct {
	ID    string
	Label string
	// RequestID is the originating HTTP request ID ("" for direct
	// submissions), echoed in views so API clients can correlate a job
	// with the request that created it.
	RequestID string

	seq int64 // submission order, the order Jobs lists

	mu       sync.Mutex
	state    State
	result   result
	err      error
	created  time.Time
	finished time.Time
	cancel   context.CancelFunc
	done     chan struct{}
	progress *obs.Progress
}

// Progress returns the job's live progress tracker (nil until the job
// starts running; obs.Progress is nil-safe, so callers may snapshot the
// result unconditionally).
func (j *Job) Progress() *obs.Progress {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.progress
}

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Summary decodes the result summary (nil until Done). Every call
// decodes the stored bytes afresh, so the caller owns what it gets; the
// request paths write the bytes through AppendView instead.
func (j *Job) Summary() *Summary {
	j.mu.Lock()
	b := j.result.json
	j.mu.Unlock()
	return decodeSummary(b)
}

// Err returns the terminal error (nil while running or on success).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// ErrKind returns the classified failure kind.
func (j *Job) ErrKind() ErrKind { return Classify(j.Err()) }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wall returns queued→finished wall time (running time if not finished).
func (j *Job) Wall() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.finished.IsZero() {
		return time.Since(j.created)
	}
	return j.finished.Sub(j.created)
}

// View is a transportable snapshot of a job.
type View struct {
	ID        string   `json:"id"`
	Label     string   `json:"label,omitempty"`
	RequestID string   `json:"request_id,omitempty"`
	State     State    `json:"state"`
	Error     string   `json:"error,omitempty"`
	ErrKind   ErrKind  `json:"error_kind,omitempty"`
	WallNS    int64    `json:"wall_ns"`
	Summary   *Summary `json:"summary,omitempty"`
	RaceCnt   int      `json:"race_count"`
	Finished  bool     `json:"finished"`
}

// viewHead is the part of a View before its summary, the fields
// AppendView encodes per call.
type viewHead struct {
	ID        string  `json:"id"`
	Label     string  `json:"label,omitempty"`
	RequestID string  `json:"request_id,omitempty"`
	State     State   `json:"state"`
	Error     string  `json:"error,omitempty"`
	ErrKind   ErrKind `json:"error_kind,omitempty"`
	WallNS    int64   `json:"wall_ns"`
}

// snapshot reads everything a view shows under one lock.
func (j *Job) snapshot() (h viewHead, res result, finished bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	h = viewHead{ID: j.ID, Label: j.Label, RequestID: j.RequestID, State: j.state}
	if j.err != nil {
		h.Error = j.err.Error()
		h.ErrKind = Classify(j.err)
	}
	if j.finished.IsZero() {
		h.WallNS = int64(time.Since(j.created))
	} else {
		h.WallNS = int64(j.finished.Sub(j.created))
		finished = true
	}
	return h, j.result, finished
}

// View snapshots the job for transport, decoding its summary.
func (j *Job) View() View {
	h, res, finished := j.snapshot()
	return View{
		ID: h.ID, Label: h.Label, RequestID: h.RequestID, State: h.State,
		Error: h.Error, ErrKind: h.ErrKind, WallNS: h.WallNS,
		Summary: decodeSummary(res.json), RaceCnt: res.races, Finished: finished,
	}
}

// AppendView appends the job's view to buf as compact JSON, exactly the
// bytes json.Marshal(j.View()) gives. Only the small head is encoded;
// the stored summary is copied in as it is.
func (j *Job) AppendView(buf []byte) []byte {
	h, res, finished := j.snapshot()
	head, _ := json.Marshal(h) // strings and integers: cannot fail
	buf = slices.Grow(buf, len(head)+len(res.json)+64)
	buf = append(buf, head[:len(head)-1]...) // drop the closing brace
	if res.json != nil {
		buf = append(buf, `,"summary":`...)
		buf = append(buf, res.json...)
	}
	buf = append(buf, `,"race_count":`...)
	buf = strconv.AppendInt(buf, int64(res.races), 10)
	buf = append(buf, `,"finished":`...)
	buf = strconv.AppendBool(buf, finished)
	return append(buf, '}')
}

// Stats is a point-in-time snapshot of scheduler health, served by
// GET /statsz.
type Stats struct {
	Workers    int   `json:"workers"`
	QueueDepth int   `json:"queue_depth"`
	QueueLen   int   `json:"queue_len"`
	InFlight   int64 `json:"in_flight"`

	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
	Rejected  int64 `json:"rejected"`

	// JobsEvicted counts finished jobs forgotten to keep the history
	// at jobHistory; JobsRetained is the size of the job table.
	JobsEvicted  int64 `json:"jobs_evicted"`
	JobsRetained int   `json:"jobs_retained"`

	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheEvictions int64 `json:"cache_evictions"`
	CacheEntries   int   `json:"cache_entries"`
}

// Scheduler is the bounded-worker batch analysis service.
type Scheduler struct {
	opts  Options
	queue chan *Job
	// sem is the admission semaphore: exactly one token is held per
	// queued job (released when a worker dequeues it), so a queue send
	// under a token never blocks. Submit tries the token non-blocking
	// (ErrQueueFull backpressure); SubmitWait blocks on it — the
	// submit-side flow control the streaming frontends rely on.
	sem  chan struct{}
	stop chan struct{} // closed by Shutdown to unblock SubmitWait

	mu   sync.Mutex
	jobs map[string]*Job
	reqs map[string]Request // pending request payloads, removed once run
	// history is a ring of the last jobHistory finished jobs, the oldest
	// at next; finishing one more forgets the job it overwrites.
	history []*Job
	next    int
	closed  bool
	seq     int64

	cache *lru
	wg    sync.WaitGroup

	submitted atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	canceled  atomic.Int64
	rejected  atomic.Int64
	inFlight  atomic.Int64
	evicted   atomic.Int64
	encodes   atomic.Int64 // summary encodings, pinned by the tests
}

// jobHistory bounds the finished jobs the scheduler remembers. Queued
// and running jobs are never forgotten.
const jobHistory = 4096

// New creates a scheduler and starts its worker pool.
func New(opts Options) *Scheduler {
	opts = opts.withDefaults()
	s := &Scheduler{
		opts:    opts,
		queue:   make(chan *Job, opts.QueueDepth),
		sem:     make(chan struct{}, opts.QueueDepth),
		stop:    make(chan struct{}),
		jobs:    map[string]*Job{},
		reqs:    map[string]Request{},
		history: make([]*Job, jobHistory),
	}
	if opts.CacheEntries > 0 {
		s.cache = newLRU(opts.CacheEntries)
	}
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// cacheKey derives the result-cache key: the SHA-256 of the sorted
// (filename, source) pairs combined with the config fingerprint. Two
// requests collide only if both the full source hash and every
// report-affecting config field agree.
func cacheKey(req Request) string {
	h := sha256.New()
	names := make([]string, 0, len(req.Files))
	for n := range req.Files {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(h, "%d:%s:%d:", len(n), n, len(req.Files[n]))
		h.Write([]byte(req.Files[n]))
	}
	h.Write([]byte(req.Config.Fingerprint()))
	return hex.EncodeToString(h.Sum(nil))
}

// Submit admits a job. It never blocks: a full queue returns ErrQueueFull
// (backpressure), a shut-down scheduler returns ErrShutdown. A result-
// cache hit completes the job immediately — without entering the queue —
// in microseconds.
func (s *Scheduler) Submit(req Request) (*Job, error) {
	return s.submit(context.Background(), req, false)
}

// SubmitWait admits a job like Submit, but blocks while the admission
// queue is full until space frees, ctx ends (returning ctx's error), or
// the scheduler shuts down. It is the submit-side flow control of the
// streaming frontends: a corpus producer calls SubmitWait in a loop and
// the bounded queue throttles it to the workers' pace instead of
// forcing a retry loop around ErrQueueFull.
func (s *Scheduler) SubmitWait(ctx context.Context, req Request) (*Job, error) {
	return s.submit(ctx, req, true)
}

func (s *Scheduler) submit(ctx context.Context, req Request, wait bool) (*Job, error) {
	if len(req.Files) == 0 && len(req.Sources) > 0 {
		files := make(map[string]string, len(req.Sources))
		for _, src := range req.Sources {
			if _, dup := files[src.Name]; dup {
				return nil, fmt.Errorf("%w: duplicate source %q", ErrParse, src.Name)
			}
			files[src.Name] = string(src.Bytes)
		}
		req.Files = files
	}
	if len(req.Files) == 0 {
		return nil, fmt.Errorf("%w: no files", ErrParse)
	}
	if req.Label == "" {
		names := make([]string, 0, len(req.Files))
		for n := range req.Files {
			names = append(names, n)
		}
		sort.Strings(names)
		req.Label = names[0]
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.rejected.Add(1)
		return nil, ErrShutdown
	}
	s.seq++
	j := &Job{
		ID:        fmt.Sprintf("job-%06d", s.seq),
		Label:     req.Label,
		RequestID: req.RequestID,
		seq:       s.seq,
		state:     Queued,
		created:   time.Now(),
		done:      make(chan struct{}),
	}
	s.jobs[j.ID] = j
	s.mu.Unlock()

	// Cache lookup before admission: a hit never consumes a worker or a
	// queue token. A second lookup happens at dispatch (runJob) so that
	// identical requests submitted back-to-back — before the first one
	// finished — still hit once the first result lands. Misses are
	// counted there, when a job actually runs.
	if s.cache != nil {
		if res, ok := s.cache.get(cacheKey(req)); ok {
			s.submitted.Add(1)
			s.finish(j, Queued, Done, res, nil)
			s.log("job cache hit", j, "races", res.races)
			return j, nil
		}
	}

	// Acquire an admission token; holding one guarantees queue space.
	drop := func(err error) (*Job, error) {
		s.mu.Lock()
		delete(s.jobs, j.ID)
		s.mu.Unlock()
		s.rejected.Add(1)
		return nil, err
	}
	if wait {
		select {
		case s.sem <- struct{}{}:
		case <-s.stop:
			return drop(ErrShutdown)
		case <-ctx.Done():
			return drop(ctx.Err())
		}
	} else {
		select {
		case s.sem <- struct{}{}:
		default:
			return drop(ErrQueueFull)
		}
	}

	s.mu.Lock()
	if s.closed { // Shutdown raced the token acquisition
		delete(s.jobs, j.ID)
		s.mu.Unlock()
		<-s.sem // hand the token back
		s.rejected.Add(1)
		return nil, ErrShutdown
	}
	s.reqs[j.ID] = req
	s.queue <- j // never blocks: one token per queued job
	s.mu.Unlock()
	s.submitted.Add(1)
	s.log("job queued", j, "files", len(req.Files))
	return j, nil
}

// Get returns a job by ID.
func (s *Scheduler) Get(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrUnknownJob
	}
	return j, nil
}

// Wait blocks until the job finishes or ctx ends.
func (s *Scheduler) Wait(ctx context.Context, id string) (*Job, error) {
	j, err := s.Get(id)
	if err != nil {
		return nil, err
	}
	select {
	case <-j.Done():
		return j, nil
	case <-ctx.Done():
		return j, ctx.Err()
	}
}

// Cancel cancels a job: a queued job is marked canceled before it runs, a
// running job's context is canceled (the pipeline returns within
// milliseconds). Returns false for unknown or already-finished jobs.
func (s *Scheduler) Cancel(id string) bool {
	j, err := s.Get(id)
	if err != nil {
		return false
	}
	if s.finish(j, Queued, Canceled, result{}, o2.ErrCanceled) {
		return true
	}
	j.mu.Lock()
	running, cancel := j.state == Running, j.cancel
	j.mu.Unlock()
	if running {
		cancel()
	}
	return running
}

// finish moves j from state from to the terminal state to, counts it and
// retires it into the bounded history, forgetting the oldest finished
// job once the history is full. Every terminal transition goes through
// here. It reports false, changing nothing, when j is no longer in from.
func (s *Scheduler) finish(j *Job, from, to State, res result, err error) bool {
	j.mu.Lock()
	if j.state != from {
		j.mu.Unlock()
		return false
	}
	j.state, j.result, j.err = to, res, err
	j.finished = time.Now()
	j.cancel = nil
	j.mu.Unlock()

	switch to {
	case Done:
		s.completed.Add(1)
	case Failed:
		s.failed.Add(1)
	case Canceled:
		s.canceled.Add(1)
	}
	s.mu.Lock()
	if old := s.history[s.next]; old != nil {
		delete(s.jobs, old.ID)
		s.evicted.Add(1)
	}
	s.history[s.next] = j
	s.next = (s.next + 1) % len(s.history)
	s.mu.Unlock()
	close(j.done)
	return true
}

// encode renders a summary as the compact JSON its job's views are
// written from. It is the only place a summary is encoded.
func (s *Scheduler) encode(sum *Summary) (result, error) {
	b, err := json.Marshal(sum)
	if err != nil {
		return result{}, fmt.Errorf("sched: encode summary: %w", err)
	}
	s.encodes.Add(1)
	return result{json: b, races: len(sum.Races)}, nil
}

// Jobs returns every retained job in submission order.
func (s *Scheduler) Jobs() []*Job {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	slices.SortFunc(jobs, func(a, b *Job) int { return cmp.Compare(a.seq, b.seq) })
	return jobs
}

// log emits a structured job-lifecycle event when a logger is
// configured. Every record carries the job ID, label and (when present)
// the originating request ID; extra attrs follow slog's key/value
// convention.
func (s *Scheduler) log(msg string, j *Job, args ...any) {
	if s.opts.Log == nil {
		return
	}
	attrs := make([]any, 0, 6+len(args))
	attrs = append(attrs, "job", j.ID, "label", j.Label)
	if j.RequestID != "" {
		attrs = append(attrs, "request_id", j.RequestID)
	}
	attrs = append(attrs, args...)
	s.opts.Log.Info(msg, attrs...)
}

// StateCounts returns the number of known jobs in each lifecycle state —
// the `o2_sched_jobs{state="..."}` gauge behind GET /metrics.
func (s *Scheduler) StateCounts() map[State]int {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	counts := map[State]int{Queued: 0, Running: 0, Done: 0, Failed: 0, Canceled: 0}
	for _, j := range jobs {
		counts[j.State()]++
	}
	return counts
}

// Stats snapshots the scheduler counters.
func (s *Scheduler) Stats() Stats {
	st := Stats{
		Workers:    s.opts.Workers,
		QueueDepth: s.opts.QueueDepth,
		QueueLen:   len(s.queue),
		InFlight:   s.inFlight.Load(),
		Submitted:  s.submitted.Load(),
		Completed:  s.completed.Load(),
		Failed:     s.failed.Load(),
		Canceled:   s.canceled.Load(),
		Rejected:   s.rejected.Load(),

		JobsEvicted: s.evicted.Load(),
	}
	s.mu.Lock()
	st.JobsRetained = len(s.jobs)
	s.mu.Unlock()
	if s.cache != nil {
		hits, misses, evictions, entries := s.cache.stats()
		st.CacheHits, st.CacheMisses, st.CacheEvictions, st.CacheEntries = hits, misses, evictions, entries
	}
	return st
}

// Shutdown stops admission and drains: queued and running jobs finish
// normally. If ctx ends before the drain completes, every remaining job
// is canceled and Shutdown waits for the (now fast) drain, returning the
// context's error.
func (s *Scheduler) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.queue)
	close(s.stop)
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
	}
	// Hard stop: cancel everything still alive, then wait out the drain.
	s.mu.Lock()
	for _, j := range s.jobs {
		j.mu.Lock()
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	}
	s.mu.Unlock()
	<-drained
	return ctx.Err()
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		<-s.sem // dequeue releases the admission token
		s.mu.Lock()
		req, ok := s.reqs[j.ID]
		delete(s.reqs, j.ID)
		s.mu.Unlock()
		if !ok || j.State() != Queued {
			continue // canceled while queued
		}
		s.runJob(j, req)
	}
}

func (s *Scheduler) runJob(j *Job, req Request) {
	timeout := req.Timeout
	if timeout == 0 {
		timeout = s.opts.DefaultTimeout
	}
	ctx, cancel := context.WithCancel(context.Background())
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), timeout)
	}
	defer cancel()
	// Thread the originating request ID into the pipeline's context so any
	// stage (and its logs) can be correlated with the HTTP request.
	ctx = WithRequestID(ctx, req.RequestID)

	prog := obs.NewProgress()
	j.mu.Lock()
	if j.state != Queued {
		j.mu.Unlock()
		return
	}
	j.state = Running
	j.cancel = cancel
	j.progress = prog
	j.mu.Unlock()
	s.log("job started", j)

	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)

	key := cacheKey(req)
	if s.cache != nil {
		if res, ok := s.cache.get(key); ok {
			s.finish(j, Running, Done, res, nil)
			return
		}
		s.cache.miss()
	}

	cfg := req.Config
	if s.opts.CollectStats {
		cfg.Obs = obs.New()
	} else {
		cfg.Obs = nil
	}
	cfg.Progress = prog

	res, err := o2.AnalyzeSources(ctx, sourcesOf(req.Files), cfg)
	if errors.Is(err, o2.ErrCompile) {
		// Keep the scheduler's own parse sentinel on the job so clients
		// branching on ErrParse keep working.
		err = fmt.Errorf("%w: %v", ErrParse, err)
	}
	var out result
	if err == nil {
		if out, err = s.encode(summarize(res)); err == nil && s.cache != nil {
			s.cache.put(key, out)
		}
	}
	switch Classify(err) {
	case KindNone:
		s.finish(j, Running, Done, out, nil)
		s.log("job done", j, "races", out.races, "wall", j.Wall())
	case KindCanceled:
		s.finish(j, Running, Canceled, result{}, err)
		s.log("job canceled", j, "wall", j.Wall())
	default:
		s.finish(j, Running, Failed, result{}, err)
		s.log("job failed", j, "kind", string(Classify(err)), "error", err, "wall", j.Wall())
	}
}

// sourcesOf lowers a Files map onto the canonical typed form, in sorted
// name order so the resulting program is deterministic.
func sourcesOf(files map[string]string) []o2.Source {
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	srcs := make([]o2.Source, 0, len(names))
	for _, n := range names {
		srcs = append(srcs, o2.Source{Name: n, Bytes: []byte(files[n])})
	}
	return srcs
}
