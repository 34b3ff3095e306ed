package sched

import (
	"bytes"
	"context"
	"encoding/json"
	"regexp"
	"testing"
	"time"

	"o2"
	"o2/internal/truth"
)

// awkwardLabel needs every kind of escaping encoding/json applies to a
// string: HTML characters, quotes, a backslash and a line separator.
const awkwardLabel = "a<b & c>d \"q\" \\ \u2028"

var wallNS = regexp.MustCompile(`"wall_ns":\d+`)

// checkView requires AppendView to give exactly json.Marshal(j.View()).
// An unfinished job's wall clock moves between the two calls, so only
// that number is masked there.
func checkView(t *testing.T, j *Job, want State) {
	t.Helper()
	v := j.View()
	if v.State != want {
		t.Fatalf("%s: state %s, want %s (err %v)", j.ID, v.State, want, j.Err())
	}
	marshaled, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	got := j.AppendView(nil)
	if !v.Finished {
		marshaled = wallNS.ReplaceAll(marshaled, []byte(`"wall_ns":0`))
		got = wallNS.ReplaceAll(got, []byte(`"wall_ns":0`))
	}
	if !bytes.Equal(got, marshaled) {
		t.Fatalf("%s (%s): AppendView differs from json.Marshal(View())\n got: %.300s\nwant: %.300s", j.ID, want, got, marshaled)
	}
	// Appending keeps what the buffer already holds.
	if pre := j.AppendView([]byte("[")); !bytes.Equal(pre[:1], []byte("[")) {
		t.Fatal("AppendView overwrote the buffer prefix")
	}
}

// TestAppendViewMatchesMarshal pins the one view writer to the
// reflective encoding of View for every lifecycle state, over the whole
// truth corpus, cold and cache-served. Each View() decodes the stored
// summary and json.Marshal encodes it again, so equality also shows the
// stored bytes round-trip losslessly.
func TestAppendViewMatchesMarshal(t *testing.T) {
	progs, err := truth.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Workers: 1, QueueDepth: 4, CollectStats: true})
	defer s.Shutdown(context.Background())

	// Running and queued: a long job holds the only worker.
	blocker, err := s.Submit(Request{Files: map[string]string{"big.mini": genSource(320)}, Config: o2.DefaultConfig(), Label: awkwardLabel})
	if err != nil {
		t.Fatal(err)
	}
	for blocker.State() == Queued {
		time.Sleep(time.Millisecond)
	}
	queued, err := s.Submit(Request{Files: map[string]string{"q.mini": racySrc}, Config: o2.DefaultConfig(), Label: awkwardLabel, RequestID: "req<&>"})
	if err != nil {
		t.Fatal(err)
	}
	checkView(t, blocker, Running)
	checkView(t, queued, Queued)
	if !s.Cancel(queued.ID) {
		t.Fatal("Cancel(queued) = false")
	}
	checkView(t, queued, Canceled)
	waitDone(t, blocker)

	bad, err := s.Submit(Request{Files: map[string]string{"bad.mini": "class {"}, Config: o2.DefaultConfig(), Label: awkwardLabel})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, bad)
	checkView(t, bad, Failed)

	for _, p := range progs {
		r := Request{Files: map[string]string{p.File: p.Source}, Config: p.Config(), Label: awkwardLabel + p.Name}
		for _, cached := range []bool{false, true} {
			j, err := s.Submit(r)
			if err != nil {
				t.Fatal(err)
			}
			waitDone(t, j)
			checkView(t, j, Done)
			if got := j.Summary().Cached; got != cached {
				t.Fatalf("%s: cached=%v, want %v", p.Name, got, cached)
			}
		}
	}
}

// TestSummaryEncodedOnce pins the encoding budget: one encoding per
// finished miss, none for a cache hit (its cached:true variant is the
// stored bytes with the flag copied in) and none on any read of a job.
func TestSummaryEncodedOnce(t *testing.T) {
	s := New(Options{Workers: 1, CollectStats: true})
	defer s.Shutdown(context.Background())

	srcs := []string{racySrc, cleanSrc, genSource(3)}
	var jobs []*Job
	submit := func(src string) {
		j, err := s.Submit(req(src))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		jobs = append(jobs, j)
	}
	for _, src := range srcs {
		submit(src)
	}
	if got := s.encodes.Load(); got != int64(len(srcs)) {
		t.Fatalf("after %d misses: %d encodings", len(srcs), got)
	}
	for i := 0; i < 3; i++ {
		for _, src := range srcs {
			submit(src)
		}
	}
	if got := s.encodes.Load(); got != int64(len(srcs)) {
		t.Fatalf("after three hits on each of %d entries: %d encodings, want %d", len(srcs), got, len(srcs))
	}
	// Every hit on one entry shares its bytes.
	if a, b := jobs[len(srcs)].result.json, jobs[2*len(srcs)].result.json; &a[0] != &b[0] {
		t.Fatal("two hits on one cache entry hold separate encodings")
	}
	before := s.encodes.Load()
	for _, j := range s.Jobs() {
		j.AppendView(nil)
		j.View()
		j.Summary()
	}
	if got := s.encodes.Load(); got != before {
		t.Fatalf("reading jobs encoded %d summaries", got-before)
	}
}
