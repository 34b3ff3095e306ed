package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"o2/internal/sched"
)

// BenchmarkAnalyzeWait times a waited POST /analyze through the whole
// HTTP stack, with the `o2 serve` scheduler defaults: a cache hit (the
// scheduler, the stored summary and the response write) and a miss (a
// new file name each time, so the analysis runs too).
func BenchmarkAnalyzeWait(b *testing.B) {
	s := sched.New(sched.Options{QueueDepth: 64, CacheEntries: 128, CollectStats: true})
	ts := httptest.NewServer(New(s))
	defer func() {
		ts.Close()
		s.Shutdown(context.Background())
	}()
	post := func(b *testing.B, req AnalyzeRequest) {
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		resp, err := ts.Client().Post(ts.URL+"/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("status %s, err %v", resp.Status, err)
		}
		b.SetBytes(n)
	}

	b.Run("hit", func(b *testing.B) {
		hit := AnalyzeRequest{Source: racySrc, Wait: true}
		post(b, hit) // the cold run
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, hit)
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			post(b, AnalyzeRequest{Files: map[string]string{fmt.Sprintf("m%d.mini", i): racySrc}, Wait: true})
		}
	})
}
