package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"o2"
	"o2/internal/sched"
)

// getBody fetches url and returns the response and its body.
func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// checkViewBody requires a job response to be the job's compact view,
// written in one piece with its length, decoding to the job's View.
func checkViewBody(t *testing.T, s *sched.Scheduler, resp *http.Response, raw []byte) sched.View {
	t.Helper()
	var got sched.View
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, raw)
	}
	job, err := s.Get(got.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := job.View(); !reflect.DeepEqual(got, want) {
		t.Fatalf("response decodes to\n%+v\nwant the job's view\n%+v", got, want)
	}
	if want := append(job.AppendView(nil), '\n'); !bytes.Equal(raw, want) {
		t.Fatalf("response is not the job's compact view:\n%.300s", raw)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(raw)) {
		t.Fatalf("Content-Length %q for a %d-byte body", cl, len(raw))
	}
	return got
}

// TestJobResponsesAreViews checks every path that returns a job view:
// the waited and the accepted POST /analyze, GET /jobs/{id}, GET /jobs
// and the terminal line of /jobs/{id}/events.
func TestJobResponsesAreViews(t *testing.T) {
	ts, s := newTestServer(t, sched.Options{Workers: 1, CollectStats: true})

	resp, raw := postAnalyze(t, ts.URL, AnalyzeRequest{Source: racySrc, Wait: true, Label: `<&>"`})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: %s", resp.Status, raw)
	}
	waited := checkViewBody(t, s, resp, raw)
	if waited.State != sched.Done || waited.RaceCnt != 1 || waited.Summary == nil || waited.Summary.Stats == nil {
		t.Fatalf("waited view: %+v", waited)
	}
	resp, raw = postAnalyze(t, ts.URL, AnalyzeRequest{Source: racySrc, Wait: true})
	if hit := checkViewBody(t, s, resp, raw); !hit.Summary.Cached {
		t.Fatal("resubmission not cache-served")
	}

	resp, raw = postAnalyze(t, ts.URL, AnalyzeRequest{Source: cleanSrc})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %s, want 202", resp.Status)
	}
	var accepted sched.View
	if err := json.Unmarshal(raw, &accepted); err != nil {
		t.Fatal(err)
	}
	job, err := s.Get(accepted.ID)
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()

	resp, raw = getBody(t, ts.URL+"/jobs/"+job.ID)
	if polled := checkViewBody(t, s, resp, raw); polled.State != sched.Done || polled.RaceCnt != 0 {
		t.Fatalf("polled view: %+v", polled)
	}

	_, raw = getBody(t, ts.URL+"/jobs/"+job.ID+"/events?interval_ms=10")
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	if last := lines[len(lines)-1]; !bytes.Equal(last, job.AppendView(nil)) {
		t.Fatalf("events stream ends with\n%.300s\nnot the job's view", last)
	}

	resp, raw = getBody(t, ts.URL+"/jobs")
	var list []sched.View
	if err := json.Unmarshal(raw, &list); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, raw)
	}
	jobs := s.Jobs()
	want := make([]sched.View, len(jobs))
	for i, j := range jobs {
		want[i] = j.View()
	}
	if len(list) != 3 || !reflect.DeepEqual(list, want) {
		t.Fatalf("GET /jobs decodes to\n%+v\nwant\n%+v", list, want)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(raw)) {
		t.Fatalf("GET /jobs: Content-Length %q for a %d-byte body", cl, len(raw))
	}
}

// TestEvictedJob404 pushes the first job out of the bounded history:
// its ID then reads like one never issued, and the eviction shows in
// /statsz and /metrics.
func TestEvictedJob404(t *testing.T) {
	ts, s := newTestServer(t, sched.Options{Workers: 1})
	_, raw := postAnalyze(t, ts.URL, AnalyzeRequest{Source: racySrc, Wait: true})
	var first sched.View
	if err := json.Unmarshal(raw, &first); err != nil {
		t.Fatal(err)
	}
	for s.Stats().JobsEvicted == 0 {
		if _, err := s.Submit(sched.Request{Files: map[string]string{"input.mini": racySrc}, Config: mustConfig(t)}); err != nil {
			t.Fatal(err)
		}
	}
	if resp, _ := getBody(t, ts.URL+"/jobs/"+first.ID); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted job: status %s, want 404", resp.Status)
	}

	_, raw = getBody(t, ts.URL+"/statsz")
	var st sched.Stats
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.JobsEvicted != 1 || st.JobsRetained != int(st.Submitted)-1 {
		t.Fatalf("statsz: evicted=%d retained=%d submitted=%d", st.JobsEvicted, st.JobsRetained, st.Submitted)
	}
	_, raw = getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		"# TYPE o2_sched_jobs_evicted counter\no2_sched_jobs_evicted 1\n",
		fmt.Sprintf("# TYPE o2_sched_jobs_retained gauge\no2_sched_jobs_retained %d\n", st.JobsRetained),
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// mustConfig is the configuration of a request with no config, so
// direct submissions share its cache entries.
func mustConfig(t *testing.T) o2.Config {
	t.Helper()
	c, err := ConfigRequest{}.toConfig()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestAnalyzeBodyTooLarge: a body over the cap is refused with 413 and a
// classified kind, before any job exists.
func TestAnalyzeBodyTooLarge(t *testing.T) {
	ts, s := newTestServer(t, sched.Options{Workers: 1})
	body := `{"source":"` + strings.Repeat("x", maxAnalyzeBody) + `"}`
	resp, err := http.Post(ts.URL+"/analyze", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %s, want 413", resp.Status)
	}
	var eb errorBody
	if err := json.Unmarshal(raw, &eb); err != nil || eb.Kind != sched.KindTooLarge {
		t.Fatalf("error body %s (%v), want kind %q", raw, err, sched.KindTooLarge)
	}
	if st := s.Stats(); st.Submitted != 0 || st.JobsRetained != 0 {
		t.Fatalf("oversized body became a job: %+v", st)
	}
}

// TestReadHeaderTimeout: the server `o2 serve` runs closes a connection
// whose headers never finish.
func TestReadHeaderTimeout(t *testing.T) {
	s := sched.New(sched.Options{Workers: 1})
	defer s.Shutdown(context.Background())
	hs := New(s).HTTPServer()
	if hs.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v", hs.ReadHeaderTimeout)
	}
	if hs.IdleTimeout != idleTimeout || idleTimeout <= 0 {
		t.Fatalf("IdleTimeout = %v", hs.IdleTimeout)
	}
	hs.ReadHeaderTimeout = 50 * time.Millisecond // the same bound, shortened for the test
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: x\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	_, err = io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("connection with unfinished headers still open after 5s")
	}
	t.Logf("closed after %v", time.Since(start))
}

// TestServiceSoak sends three job histories' worth of mixed requests
// through the whole stack: waited hits and misses, polled jobs, failed
// jobs, malformed bodies and abandoned waits. Afterwards the live heap
// stays under a ceiling and every goroutine is gone.
func TestServiceSoak(t *testing.T) {
	const (
		requests = 3 * 4096 // three times the scheduler's job history
		clients  = 4
		ceiling  = 64 << 20 // bytes of live heap
	)
	baseline := runtime.NumGoroutine()
	s := sched.New(sched.Options{Workers: 2, QueueDepth: 64, CollectStats: true})
	ts := httptest.NewServer(New(s))
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}

	post := func(ctx context.Context, body []byte) (int, []byte, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/analyze", bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		return resp.StatusCode, raw, err
	}
	mustJSON := func(v AnalyzeRequest) []byte {
		b, _ := json.Marshal(v) // strings, a map, integers and booleans: cannot fail
		return b
	}
	hot := []string{racySrc, cleanSrc, genSource(2), genSource(3)}

	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < requests; i += clients {
				var body []byte
				want := http.StatusOK
				switch i % 10 {
				case 0, 1, 2, 3, 4, 5: // cache hits after the first of each
					body = mustJSON(AnalyzeRequest{Source: hot[i%len(hot)], Wait: true})
				case 6: // a miss: every file name is new
					body = mustJSON(AnalyzeRequest{Files: map[string]string{fmt.Sprintf("m%d.mini", i): racySrc}, Wait: true})
				case 7: // accepted, then polled
					body = mustJSON(AnalyzeRequest{Source: hot[i%len(hot)]})
					want = http.StatusAccepted
				case 8: // a failed job
					body = mustJSON(AnalyzeRequest{Source: "class {", Wait: true})
				case 9: // malformed
					body, want = []byte("{not json"), http.StatusBadRequest
				}
				if i%97 == 0 { // abandon the wait on a fresh miss
					ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
					post(ctx, mustJSON(AnalyzeRequest{Files: map[string]string{fmt.Sprintf("a%d.mini", i): genSource(8)}, Wait: true}))
					cancel()
				}
				code, raw, err := post(context.Background(), body)
				if err == nil && code != want {
					err = fmt.Errorf("request %d: status %d, want %d: %.200s", i, code, want, raw)
				}
				if err == nil && code == http.StatusAccepted {
					var v sched.View
					if err = json.Unmarshal(raw, &v); err == nil {
						var resp *http.Response
						if resp, err = client.Get(ts.URL + "/jobs/" + v.ID); err == nil {
							io.Copy(io.Discard, resp.Body)
							resp.Body.Close()
						}
					}
				}
				if err != nil {
					errc <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	st := s.Stats()
	t.Logf("live heap %.1f MB after %d requests; jobs retained %d, evicted %d", float64(ms.HeapAlloc)/(1<<20), requests, st.JobsRetained, st.JobsEvicted)
	if ms.HeapAlloc > ceiling {
		t.Errorf("live heap %d bytes over the %d ceiling", ms.HeapAlloc, ceiling)
	}
	if st.JobsEvicted == 0 || st.JobsRetained > 4096+st.Workers+st.QueueDepth {
		t.Errorf("job table not bounded: %+v", st)
	}

	client.CloseIdleConnections()
	ts.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines left, baseline %d:\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
}
