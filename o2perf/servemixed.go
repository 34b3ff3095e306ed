package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"o2/internal/report"
	"o2/internal/sched"
	"o2/internal/server"
)

// service is the in-process server of serve-mixed: a scheduler with the
// `o2 serve` defaults behind server.New on a loopback listener.
type service struct {
	sched  *sched.Scheduler
	http   *http.Server
	served chan error
	url    string
	client *http.Client
}

func startService(clients int) (*service, error) {
	// The `o2 serve` defaults, without its request logger.
	s := sched.New(sched.Options{QueueDepth: 64, CacheEntries: 128, CollectStats: true})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = s.Shutdown(context.Background()) // nothing was submitted
		return nil, err
	}
	svc := &service{
		sched:  s,
		http:   &http.Server{Handler: server.New(s)},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String() + "/analyze",
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true}},
	}
	go func() { svc.served <- svc.http.Serve(ln) }()
	return svc, nil
}

// close stops the server and the scheduler and waits for both.
func (svc *service) close() error {
	svc.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := svc.http.Shutdown(ctx)
	if serr := <-svc.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := svc.sched.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// serveInput is the serve-mixed set-up: the request sequence and the
// running service.
type serveInput struct {
	reqs []request
	svc  *service
}

// serveRun drives closed-loop clients through the request sequence.
type serveRun struct {
	in      *serveInput
	clients int
	next    atomic.Int64 // next sequence position

	mu        sync.Mutex
	out       *outcome
	firstKeys map[int]string // sequence index -> race set of its first response
}

// sample is one client's record of one phase.
type sample struct {
	lat       []float64       // round trip, ms
	schedWait []float64       // misses: job wall minus analysis time, ms
	serverOv  []float64       // round trip minus job wall, ms
	done      []time.Duration // completion times, from the phase start
	respBytes int64
	roots     time.Duration // send to decoded response, per request summed
	t         *tracer
}

// exchange sends one request and reads the whole response; it returns
// the round-trip time and the body.
func (r *serveRun) exchange(body []byte) (time.Duration, []byte, error) {
	start := time.Now()
	resp, err := r.in.svc.client.Post(r.in.svc.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rt := time.Since(start)
	if err != nil {
		return 0, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, nil, fmt.Errorf("POST /analyze: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	return rt, b, nil
}

// client runs one closed-loop client until the deadline has passed and
// the phase has at least minSamples responses.
func (r *serveRun) client(phaseStart, deadline time.Time, minSamples int, done *atomic.Int64, s *sample) {
	for time.Now().Before(deadline) || done.Load() < int64(minSamples) {
		i := int(r.next.Add(1) - 1)
		req := &r.in.reqs[i%len(r.in.reqs)]
		start := time.Now()
		rt, body, err := r.exchange(req.body)
		var v sched.View
		if err == nil {
			s.t.call("report", func() { err = json.Unmarshal(body, &v) })
		}
		s.roots += time.Since(start)
		s.t.root(start)
		done.Add(1)
		if err == nil && v.State != sched.Done {
			err = fmt.Errorf("job %s: %s %s", v.ID, v.State, v.Error)
		}
		if err != nil {
			r.record(i, nil, err)
			continue
		}
		s.lat = append(s.lat, ms(rt))
		s.done = append(s.done, time.Since(phaseStart))
		s.respBytes += int64(len(body))
		wall := time.Duration(v.WallNS)
		s.t.add("server", rt-wall)
		s.serverOv = append(s.serverOv, ms(rt-wall))
		if v.Summary.Cached {
			s.t.add("sched", wall)
		} else {
			wait := wall - time.Duration(v.Summary.TotalNS)
			s.t.add("sched", wait)
			s.schedWait = append(s.schedWait, ms(wait))
		}
		keys, kerr := responseKeys(v.Summary)
		if kerr != nil {
			r.record(i, nil, kerr)
			continue
		}
		r.record(i, keys, nil)
	}
}

// record counts one response: a failure, or a verdict that must pass
// the oracle and equal the race set of the first response to the same
// sequence position.
func (r *serveRun) record(i int, keys []report.RaceKey, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.out.attempted++
	if err != nil {
		r.out.failed++
		if r.out.failed <= 3 {
			fmt.Printf("failure request %d: %v\n", i, err)
		}
		return
	}
	idx := i % len(r.in.reqs)
	id := keyIdents(keys)
	first, seen := r.firstKeys[idx]
	if !seen {
		r.firstKeys[idx] = id
	}
	if (seen && first != id) || !r.in.reqs[idx].oracle.ok(keys) {
		r.out.wrongVerdicts++
	}
}

// phase runs the clients until d has passed and returns their merged
// samples.
func (r *serveRun) phase(d time.Duration, minSamples int, traced bool) *sample {
	start := time.Now()
	deadline := start.Add(d)
	var done atomic.Int64
	samples := make([]*sample, r.clients)
	var wg sync.WaitGroup
	for c := range samples {
		samples[c] = &sample{}
		if traced {
			samples[c].t = newTracer(false)
		}
		wg.Add(1)
		go func(s *sample) {
			defer wg.Done()
			r.client(start, deadline, minSamples, &done, s)
		}(samples[c])
	}
	wg.Wait()
	all := &sample{}
	if traced {
		all.t = newTracer(false)
	}
	for _, s := range samples {
		all.lat = append(all.lat, s.lat...)
		all.schedWait = append(all.schedWait, s.schedWait...)
		all.serverOv = append(all.serverOv, s.serverOv...)
		all.done = append(all.done, s.done...)
		all.respBytes += s.respBytes
		all.roots += s.roots
		if traced {
			all.t.merge(s.t)
		}
	}
	return all
}

// responseKeys projects a job summary's races onto canonical keys. A
// race location reads "o<obj>.<field>" for instance fields and
// "Class.field" for statics; positions read "file:line".
func responseKeys(s *sched.Summary) ([]report.RaceKey, error) {
	keys := make([]report.RaceKey, 0, len(s.Races))
	for _, ri := range s.Races {
		loc := ri.Location
		if obj, field, ok := strings.Cut(loc, "."); ok && len(obj) > 1 && obj[0] == 'o' {
			if _, err := strconv.Atoi(obj[1:]); err == nil {
				loc = field
			}
		}
		af, al, err := splitPos(ri.A.Pos)
		if err != nil {
			return nil, err
		}
		bf, bl, err := splitPos(ri.B.Pos)
		if err != nil {
			return nil, err
		}
		keys = append(keys, report.RaceKey{Loc: loc, AFile: af, ALine: al, BFile: bf, BLine: bl})
	}
	return report.Normalize(keys), nil
}

func splitPos(pos string) (string, int, error) {
	i := strings.LastIndexByte(pos, ':')
	if i < 0 {
		return "", 0, fmt.Errorf("bad position %q", pos)
	}
	line, err := strconv.Atoi(pos[i+1:])
	if err != nil {
		return "", 0, fmt.Errorf("bad position %q", pos)
	}
	return pos[:i], line, nil
}

// keyIdents joins the identities of a canonical key set.
func keyIdents(keys []report.RaceKey) string {
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k.Ident())
		b.WriteByte('\n')
	}
	return b.String()
}

// serveWindow is the window over which serve-mixed counts completions;
// programs_per_s is the median window's rate.
const serveWindow = 500 * time.Millisecond

// serveWarmup is the number of untimed requests, with names of their own,
// sent before measuring.
const serveWarmup = 128

func runServeMixed(seed int64, d time.Duration, trace bool) (*outcome, error) {
	// Two closed-loop clients per CPU keep the scheduler's queue occupied.
	// With one per CPU the CPUs idle between hand-offs, and the wake-up
	// cost of the VM moved throughput by 17% from run to run of the same
	// seed, against 7% at two per CPU.
	clients := 2 * runtime.NumCPU()
	in, setupS, err := medianSetup(setupRepeats, func() (*serveInput, error) {
		reqs, err := buildRequests(seed, serveSeqLen, "r")
		if err != nil {
			return nil, err
		}
		svc, err := startService(clients)
		if err != nil {
			return nil, err
		}
		return &serveInput{reqs: reqs, svc: svc}, nil
	}, func(in *serveInput) error { return in.svc.close() })
	if err != nil {
		return nil, err
	}
	defer func() {
		if err := in.svc.close(); err != nil {
			fmt.Println("shutdown:", err)
		}
	}()

	warm, err := buildRequests(seed, serveWarmup, "w")
	if err != nil {
		return nil, err
	}
	// The warm-up's verdicts count like any other.
	out := &outcome{}
	wr := &serveRun{in: &serveInput{reqs: warm, svc: in.svc}, clients: clients, out: out, firstKeys: map[int]string{}}
	wr.phase(0, serveWarmup, false)

	r := &serveRun{in: in, clients: clients, out: out, firstKeys: map[int]string{}}
	if !trace {
		s := r.phase(d, minP90Samples, false)
		p50, p90, err := latencyQuantiles(s.lat)
		if err != nil {
			return nil, err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		m := metrics{}
		m.set("setup_s", setupS, "s")
		m.set("programs_per_s", median(windowRates(s.done, d, serveWindow)), "1/s")
		m.set("latency_p50_ms", p50, "ms")
		m.set("latency_p90_ms", p90, "ms")
		m.set("peak_rss_mb", rss, "MB")
		st := in.svc.sched.Stats()
		fmt.Printf("samples latency %d cache_hits %d cache_misses %d\n", len(s.lat), st.CacheHits, st.CacheMisses)
		r.out.metrics = m
		return r.out, nil
	}

	// Traced run: half the time untraced, half traced.
	lc := &layerCounts{}
	gm := startGCMeter()
	u := r.phase(d/2, 1, false)
	gcShare, alloc := gm.stop()
	lc.gcShare = gcShare
	lc.allocPerProgMB = float64(alloc) / mib / float64(max(len(u.lat), 1))
	st0 := in.svc.sched.Stats()
	s := r.phase(d/2, 1, true)
	st1 := in.svc.sched.Stats()
	if n := (st1.CacheHits - st0.CacheHits) + (st1.CacheMisses - st0.CacheMisses); n > 0 {
		lc.cacheHitShare = float64(st1.CacheHits-st0.CacheHits) / float64(n)
	}
	lc.schedWaitMS = s.schedWait
	lc.serverOverMS = s.serverOv
	lc.respBytes = s.respBytes
	lc.responses = len(s.lat)
	lc.overheadShare = overheadShare(u.roots, len(u.lat), s.t)
	r.out.metrics = tracedMetrics(s.t, newTracer(true), lc) // no layer here allocates on the client
	return r.out, nil
}
