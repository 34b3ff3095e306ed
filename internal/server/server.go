// Package server exposes the batch scheduler as an HTTP JSON API — the
// `o2 serve` surface. Endpoints:
//
//	POST /analyze           submit minilang sources for analysis (optionally wait)
//	POST /batch             stream an NDJSON corpus manifest; one NDJSON record per program
//	GET  /jobs/{id}         poll a job (?trace=1 returns the Chrome trace of its run)
//	GET  /jobs/{id}/events  stream live progress heartbeats as NDJSON (chunked)
//	GET  /jobs              list all jobs
//	GET  /healthz           liveness
//	GET  /statsz            scheduler + cache counters, uptime, build info, obs snapshot
//	GET  /metrics           Prometheus text exposition (dependency-free)
//	GET  /debug/pprof/...   runtime profiles (only with WithPprof / `o2 serve -pprof`)
//
// Every request is wrapped by a thin middleware: a request ID is honored
// from X-Request-ID or generated, echoed back in the response header,
// threaded into job contexts (sched.RequestIDFrom) and attached to the
// structured access log; latency lands in the server.request_seconds
// histogram that /metrics exports.
//
// Responses are compact JSON, each written in one piece with its
// Content-Length. A job view is written by sched.Job.AppendView from the
// summary bytes the job stores, so no response encodes a summary again.
// A job the scheduler's bounded history has forgotten reads as unknown
// (404). POST /analyze bodies are capped at maxAnalyzeBody (413).
//
// The handler is plain net/http over sched.Scheduler; it owns no state
// beyond its metrics registry, so it is safe to serve from multiple
// listeners.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"net/url"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"o2"
	"o2/internal/corpus"
	"o2/internal/obs"
	"o2/internal/sched"
)

// AnalyzeRequest is the POST /analyze body.
type AnalyzeRequest struct {
	// Files maps filename to minilang source. A single unnamed source can
	// be passed via Source instead.
	Files  map[string]string `json:"files,omitempty"`
	Source string            `json:"source,omitempty"`
	Config ConfigRequest     `json:"config"`
	// TimeoutMS is the per-job deadline in milliseconds (0 = server
	// default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Wait blocks the request until the job finishes and returns the full
	// result; otherwise the job ID is returned immediately (202).
	Wait  bool   `json:"wait,omitempty"`
	Label string `json:"label,omitempty"`
}

// ConfigRequest is the wire form of the analysis configuration. The zero
// value means the paper's default configuration.
type ConfigRequest struct {
	// Context selects the pointer-analysis policy: "origin" (default),
	// "0ctx", "kcfa", "kobj".
	Context string `json:"context,omitempty"`
	K       int    `json:"k,omitempty"`
	Android bool   `json:"android,omitempty"`
	// ReplicateEvents treats event origins as concurrently re-entrant.
	ReplicateEvents bool  `json:"replicate_events,omitempty"`
	Workers         int   `json:"workers,omitempty"`
	StepBudget      int64 `json:"step_budget,omitempty"`
	TimeBudgetMS    int64 `json:"time_budget_ms,omitempty"`
	MaxSHBNodes     int   `json:"max_shb_nodes,omitempty"`
}

func (cr ConfigRequest) toConfig() (o2.Config, error) {
	cfg := o2.DefaultConfig()
	pol, err := o2.PolicyByName(cr.Context, cr.K)
	if err != nil {
		return cfg, err
	}
	cfg.Policy = pol
	cfg.Android = cr.Android
	cfg.ReplicateEvents = cr.ReplicateEvents
	cfg.Workers = cr.Workers
	cfg.StepBudget = cr.StepBudget
	cfg.TimeBudget = time.Duration(cr.TimeBudgetMS) * time.Millisecond
	cfg.MaxSHBNodes = cr.MaxSHBNodes
	return cfg, nil
}

// errorBody is every non-2xx JSON response.
type errorBody struct {
	Error string        `json:"error"`
	Kind  sched.ErrKind `json:"kind,omitempty"`
}

// Server is the HTTP front end over a scheduler.
type Server struct {
	sched *sched.Scheduler
	mux   *http.ServeMux
	log   *slog.Logger
	reg   *obs.Registry
	start time.Time

	reqSeconds *obs.Histogram
	reqTotal   *obs.Counter
	errTotal   *obs.Counter

	pprof bool
}

// Option configures optional server behavior; see WithLogger and
// WithRegistry.
type Option func(*Server)

// WithLogger installs a structured access/error logger. Nil (the
// default) disables request logging.
func WithLogger(l *slog.Logger) Option { return func(s *Server) { s.log = l } }

// WithRegistry shares an existing obs registry for the server's request
// metrics instead of the private one New creates — useful when embedding
// the handler into a process that already owns a registry.
func WithRegistry(r *obs.Registry) Option { return func(s *Server) { s.reg = r } }

// WithPprof mounts net/http/pprof's profile handlers under /debug/pprof/.
// Off by default: profiles expose process internals, so the surface is
// opt-in (`o2 serve -pprof`).
func WithPprof() Option { return func(s *Server) { s.pprof = true } }

// New builds the handler over s.
func New(s *sched.Scheduler, opts ...Option) *Server {
	srv := &Server{sched: s, mux: http.NewServeMux(), start: time.Now()}
	for _, o := range opts {
		o(srv)
	}
	if srv.reg == nil {
		srv.reg = obs.New()
	}
	srv.reqSeconds = srv.reg.Histogram("server.request_seconds", obs.DefBuckets)
	srv.reqTotal = srv.reg.Counter("server.requests")
	srv.errTotal = srv.reg.Counter("server.errors")
	srv.mux.HandleFunc("POST /analyze", srv.handleAnalyze)
	srv.mux.HandleFunc("POST /batch", srv.handleBatch)
	srv.mux.HandleFunc("GET /jobs/{id}", srv.handleJob)
	srv.mux.HandleFunc("GET /jobs/{id}/events", srv.handleJobEvents)
	srv.mux.HandleFunc("GET /jobs", srv.handleJobs)
	srv.mux.HandleFunc("GET /healthz", srv.handleHealthz)
	srv.mux.HandleFunc("GET /statsz", srv.handleStatsz)
	srv.mux.HandleFunc("GET /metrics", srv.handleMetrics)
	if srv.pprof {
		srv.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		srv.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		srv.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		srv.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		srv.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return srv
}

// statusWriter captures the response status for metrics and logs.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush passes through so streaming handlers (POST /batch) can push each
// NDJSON record to the client as it lands.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// newRequestID returns a fresh opaque request ID (12 hex chars).
func newRequestID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "req-unknown"
	}
	return hex.EncodeToString(b[:])
}

// ServeHTTP is the request middleware: request-ID assignment and echo,
// latency/error accounting, structured access logging, then dispatch.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	id := r.Header.Get("X-Request-ID")
	if id == "" {
		id = newRequestID()
	}
	w.Header().Set("X-Request-ID", id)
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	r = r.WithContext(sched.WithRequestID(r.Context(), id))
	s.mux.ServeHTTP(sw, r)
	s.reqTotal.Inc()
	if sw.status >= 400 {
		s.errTotal.Inc()
	}
	s.reqSeconds.ObserveSince(start)
	if s.log != nil {
		s.log.Info("request",
			"method", r.Method, "path", r.URL.Path, "status", sw.status,
			"request_id", id, "duration", time.Since(start))
	}
}

// writeJSON writes v as compact JSON.
func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		code, b = http.StatusInternalServerError, []byte(`{"error":"response does not encode","kind":"internal"}`)
	}
	writeBody(w, code, append(b, '\n'))
}

// writeView writes a job's view, encoded from its stored summary bytes.
func writeView(w http.ResponseWriter, code int, job *sched.Job) {
	writeBody(w, code, append(job.AppendView(nil), '\n'))
}

// writeBody writes a JSON body in one write, with its Content-Length.
func writeBody(w http.ResponseWriter, code int, b []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(code)
	_, _ = w.Write(b)
}

func writeError(w http.ResponseWriter, code int, kind sched.ErrKind, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...), Kind: kind})
}

// maxAnalyzeBody caps a POST /analyze body. Larger bodies are refused
// with 413 before they are read in full.
const maxAnalyzeBody = 8 << 20

// readHeaderTimeout bounds how long a client may take to send its
// request headers on the http.Server that HTTPServer builds;
// idleTimeout bounds how long a keep-alive connection may sit idle
// between requests.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// HTTPServer returns the http.Server `o2 serve` runs the handler under.
// Its header read and its keep-alive idle time are bounded, so a client
// that never finishes its headers, or parks an idle connection, cannot
// hold the connection open.
func (s *Server) HTTPServer() *http.Server {
	return &http.Server{Handler: s, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxAnalyzeBody)).Decode(&req); err != nil {
		if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, sched.KindTooLarge,
				"request body over %d bytes", tooLarge.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, sched.KindParse, "bad request body: %s", err)
		return
	}
	files := req.Files
	if files == nil {
		files = map[string]string{}
	}
	if req.Source != "" {
		files["input.mini"] = req.Source
	}
	if len(files) == 0 {
		writeError(w, http.StatusBadRequest, sched.KindParse, "no source files in request")
		return
	}
	cfg, err := req.Config.toConfig()
	if err != nil {
		writeError(w, http.StatusBadRequest, sched.KindParse, "%s", err)
		return
	}
	job, err := s.sched.Submit(sched.Request{
		Files:     files,
		Config:    cfg,
		Timeout:   time.Duration(req.TimeoutMS) * time.Millisecond,
		Label:     req.Label,
		RequestID: sched.RequestIDFrom(r.Context()),
	})
	switch {
	case err == nil:
	case errors.Is(err, sched.ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "", "queue full, retry later")
		return
	case errors.Is(err, sched.ErrShutdown):
		writeError(w, http.StatusServiceUnavailable, "", "server is shutting down")
		return
	case errors.Is(err, sched.ErrParse):
		writeError(w, http.StatusBadRequest, sched.KindParse, "%s", err)
		return
	default:
		writeError(w, http.StatusInternalServerError, sched.KindInternal, "%s", err)
		return
	}
	if req.Wait {
		select {
		case <-job.Done():
		case <-r.Context().Done():
			// Client went away; the job keeps running server-side.
			writeError(w, http.StatusRequestTimeout, sched.KindCanceled, "wait interrupted: %s", r.Context().Err())
			return
		}
		writeView(w, http.StatusOK, job)
		return
	}
	writeView(w, http.StatusAccepted, job)
}

// handleBatch streams a corpus through the analysis pipeline: the
// request body is an NDJSON manifest of inline sources (one
// {"name":..., "source":...} object per line; path entries are rejected
// — a remote manifest must not read files off the serving host), the
// response is NDJSON too — one schema-versioned record per program, in
// input order, flushed as results land, with a terminal summary line
// carrying totals and the stream-level error (an HTTP response has no
// exit code). Configuration rides in query parameters, mirroring the
// ConfigRequest fields: context, k, android, replicate_events, workers,
// step_budget, time_budget_ms, max_shb_nodes — plus the pipeline shape:
// jobs (parallel programs), window (reorder window), timeout_ms
// (per-program deadline), run_stats=1 (attach RunStats per record).
// jobs is capped at GOMAXPROCS and window at batchWindowPerJob × jobs.
//
// The endpoint bypasses the job scheduler and its result cache: a
// corpus run is a bulk scan, and letting it flood the job table or
// evict the interactive cache would hurt the /analyze path it shares
// the process with.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	ccfg, err := batchConfig(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, sched.KindParse, "%s", err)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	cw := corpus.NewWriter(w)
	// Every record of the stream carries the request ID the middleware
	// honored or minted, so multiplexed consumers can attribute lines to
	// the originating upload.
	reqID := sched.RequestIDFrom(r.Context())
	stats, serr := o2.AnalyzeCorpus(r.Context(), corpus.InlineManifest(r.Body), ccfg, func(res o2.CorpusResult) error {
		rec := corpus.NewRecord(res)
		rec.RequestID = reqID
		if err := cw.Write(rec); err != nil {
			return err
		}
		if fl != nil {
			fl.Flush()
		}
		return nil
	})
	// Headers are long gone; the summary line is the stream's verdict.
	sum := corpus.NewSummary(stats, serr)
	sum.RequestID = reqID
	_ = cw.Write(sum)
	if fl != nil {
		fl.Flush()
	}
}

// batchWindowPerJob caps a POST /batch reorder window at this many
// programs per parallel job.
const batchWindowPerJob = 4

// batchConfig builds the corpus configuration of a POST /batch request
// from its query parameters (see handleBatch).
func batchConfig(q url.Values) (o2.CorpusConfig, error) {
	cr := ConfigRequest{
		Context:         q.Get("context"),
		K:               qInt(q.Get("k")),
		Android:         qBool(q.Get("android")),
		ReplicateEvents: qBool(q.Get("replicate_events")),
		Workers:         qInt(q.Get("workers")),
		StepBudget:      int64(qInt(q.Get("step_budget"))),
		TimeBudgetMS:    int64(qInt(q.Get("time_budget_ms"))),
		MaxSHBNodes:     qInt(q.Get("max_shb_nodes")),
	}
	cfg, err := cr.toConfig()
	if err != nil {
		return o2.CorpusConfig{}, err
	}
	// AnalyzeCorpus starts jobs goroutines up front and the reorder
	// window allocates window slots, so both are clamped to ceilings
	// derived from the host's parallelism. Zero keeps the defaults.
	maxJobs := runtime.GOMAXPROCS(0)
	jobs := min(qInt(q.Get("jobs")), maxJobs)
	maxWindow := batchWindowPerJob * maxJobs
	if jobs > 0 {
		maxWindow = batchWindowPerJob * jobs
	}
	return o2.CorpusConfig{
		Config:         cfg,
		Workers:        jobs,
		Window:         min(qInt(q.Get("window")), maxWindow),
		ProgramTimeout: time.Duration(qInt(q.Get("timeout_ms"))) * time.Millisecond,
		CollectStats:   qBool(q.Get("run_stats")),
	}, nil
}

func qInt(s string) int {
	n, _ := strconv.Atoi(s)
	return n
}

func qBool(s string) bool { return s == "1" || s == "true" }

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, err := s.sched.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "", "unknown job %q", r.PathValue("id"))
		return
	}
	if r.URL.Query().Get("trace") == "1" {
		sum := job.Summary()
		if sum == nil || sum.Stats == nil {
			writeError(w, http.StatusNotFound, "",
				"no trace for job %q (job unfinished, or server started without stats collection)", job.ID)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_ = sum.Stats.WriteTrace(w)
		return
	}
	writeView(w, http.StatusOK, job)
}

// handleJobEvents streams a job's live progress as chunked NDJSON: one
// schema-tagged progress heartbeat (corpus.ProgressRecord, "progress":
// true) per interval — immediately on connect, then every interval_ms
// query-param milliseconds (default 500, floor 10) — terminated by the
// job's final view as the last line once it reaches a terminal state.
// Consumers filter on the "progress" tag; the terminal line is the same
// object GET /jobs/{id} returns. The stream also ends when the client
// disconnects; the job keeps running server-side.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	job, err := s.sched.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "", "unknown job %q", r.PathValue("id"))
		return
	}
	interval := time.Duration(qInt(r.URL.Query().Get("interval_ms"))) * time.Millisecond
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	cw := corpus.NewWriter(w)
	reqID := sched.RequestIDFrom(r.Context())
	emit := func() error {
		rec := corpus.NewProgress(job.Progress().Snapshot())
		rec.WallNS = int64(job.Wall())
		rec.RequestID = reqID
		if err := cw.Write(rec); err != nil {
			return err
		}
		if fl != nil {
			fl.Flush()
		}
		return nil
	}
	if err := emit(); err != nil {
		return
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-job.Done():
			_, _ = w.Write(append(job.AppendView(nil), '\n'))
			if fl != nil {
				fl.Flush()
			}
			return
		case <-r.Context().Done():
			return
		case <-tick.C:
			if err := emit(); err != nil {
				return
			}
		}
	}
}

func (s *Server) handleJobs(w http.ResponseWriter, _ *http.Request) {
	buf := []byte{'['}
	for i, job := range s.sched.Jobs() {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = job.AppendView(buf)
	}
	writeBody(w, http.StatusOK, append(buf, "]\n"...))
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// mirrorSchedStats copies the scheduler's counters into the server
// registry under sched.* names, so /metrics and /statsz expose one
// consistent view. The registry has no label support; jobs-by-state is
// rendered as hand-written labeled gauge lines by handleMetrics.
func (s *Server) mirrorSchedStats() sched.Stats {
	st := s.sched.Stats()
	s.reg.Counter("sched.submitted").Set(st.Submitted)
	s.reg.Counter("sched.completed").Set(st.Completed)
	s.reg.Counter("sched.failed").Set(st.Failed)
	s.reg.Counter("sched.canceled").Set(st.Canceled)
	s.reg.Counter("sched.rejected").Set(st.Rejected)
	s.reg.Counter("sched.jobs_evicted").Set(st.JobsEvicted)
	s.reg.SetGauge("sched.jobs_retained", int64(st.JobsRetained))
	s.reg.Counter("sched.cache_hits").Set(st.CacheHits)
	s.reg.Counter("sched.cache_misses").Set(st.CacheMisses)
	s.reg.Counter("sched.cache_evictions").Set(st.CacheEvictions)
	s.reg.SetGauge("sched.workers", int64(st.Workers))
	s.reg.SetGauge("sched.queue_depth", int64(st.QueueLen))
	s.reg.SetGauge("sched.queue_capacity", int64(st.QueueDepth))
	s.reg.SetGauge("sched.in_flight", st.InFlight)
	s.reg.SetGauge("sched.cache_entries", int64(st.CacheEntries))
	s.reg.SetGauge("server.uptime_seconds", int64(time.Since(s.start).Seconds()))
	return st
}

// buildInfo is the statsz build-identification block.
type buildInfo struct {
	GoVersion string `json:"go_version,omitempty"`
	Path      string `json:"path,omitempty"`
	Revision  string `json:"vcs_revision,omitempty"`
	Modified  bool   `json:"vcs_modified,omitempty"`
}

func readBuildInfo() buildInfo {
	var b buildInfo
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return b
	}
	b.GoVersion = bi.GoVersion
	b.Path = bi.Main.Path
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			b.Revision = s.Value
		case "vcs.modified":
			b.Modified = s.Value == "true"
		}
	}
	return b
}

// statszBody extends the scheduler counters (flattened, so existing
// clients keep working) with uptime, build identification and the
// server's obs registry snapshot — the same data /metrics exposes, in
// JSON form.
type statszBody struct {
	sched.Stats
	UptimeNS int64         `json:"uptime_ns"`
	Build    buildInfo     `json:"build"`
	Obs      *obs.RunStats `json:"obs,omitempty"`
}

func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	st := s.mirrorSchedStats()
	writeJSON(w, http.StatusOK, statszBody{
		Stats:    st,
		UptimeNS: int64(time.Since(s.start)),
		Build:    readBuildInfo(),
		Obs:      s.reg.Snapshot(),
	})
}

// jobStates is the fixed exposition order of the o2_sched_jobs gauge.
var jobStates = []sched.State{sched.Queued, sched.Running, sched.Done, sched.Failed, sched.Canceled}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mirrorSchedStats()
	w.Header().Set("Content-Type", obs.PromContentType)
	s.reg.WritePrometheus(w)
	counts := s.sched.StateCounts()
	fmt.Fprintf(w, "# TYPE o2_sched_jobs gauge\n")
	for _, state := range jobStates {
		fmt.Fprintf(w, "o2_sched_jobs{state=%q} %d\n", state, counts[state])
	}
}

// Shutdown gracefully drains the scheduler (admission already stopped by
// the caller closing the listener).
func (s *Server) Shutdown(ctx context.Context) error { return s.sched.Shutdown(ctx) }
