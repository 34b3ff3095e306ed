package truth

import (
	"context"
	"encoding/json"
	"testing"

	"o2/internal/race"
	"o2/internal/sched"
)

// The re-analysis equivalence harness. The one piece of state a
// re-analysis reuses is the scheduler's result cache, so the corpus and
// the metamorphic transforms double as its equivalence suite. The
// invariant is exact: for every corpus program and every edit, the races
// a warm scheduler returns must be byte-identical to a from-scratch
// analysis of the same text. A diverging byte means a cached result was
// served for the wrong program.

// freshRaces projects a from-scratch analysis of text onto the races a
// job summary carries, witnesses included, and encodes them.
func freshRaces(t *testing.T, p *Program, text string) string {
	t.Helper()
	res, err := o2AnalyzeText(p, text)
	if err != nil {
		t.Fatalf("full analysis: %v", err)
	}
	access := func(a race.Access) sched.RaceAccess {
		op := "read"
		if a.Write {
			op = "write"
		}
		return sched.RaceAccess{Op: op, Pos: a.Pos.String(), Fn: a.Fn,
			Origin: res.Analysis.Origins.Get(a.Origin).String()}
	}
	races := res.Races()
	witnesses := race.Witnesses(res.Analysis, res.Graph, res.Report)
	out := []sched.RaceInfo{}
	for i := range races {
		r := &races[i]
		out = append(out, sched.RaceInfo{Location: r.Key.String(),
			A: access(r.A), B: access(r.B), Witness: witnesses[i]})
	}
	return encodeRaces(t, out)
}

func encodeRaces(t *testing.T, races []sched.RaceInfo) string {
	t.Helper()
	b, err := json.Marshal(races)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// schedRaces runs text through s and returns the encoded races and
// whether the result came from the cache.
func schedRaces(t *testing.T, s *sched.Scheduler, p *Program, text string) (string, bool) {
	t.Helper()
	j, err := s.SubmitWait(context.Background(), sched.Request{
		Files:  map[string]string{p.File: text},
		Config: p.Config(),
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	<-j.Done()
	if j.State() != sched.Done {
		t.Fatalf("job %s: %v", j.State(), j.Err())
	}
	sum := j.Summary()
	return encodeRaces(t, sum.Races), sum.Cached
}

func newScheduler(t *testing.T) *sched.Scheduler {
	t.Helper()
	s := sched.New(sched.Options{Workers: 1})
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	return s
}

// requireSameRaces asserts byte-identical race encodings.
func requireSameRaces(t *testing.T, what, want, got string) {
	t.Helper()
	if want != got {
		t.Errorf("%s: races differ\n--- full ---\n%s\n--- scheduler ---\n%s", what, want, got)
	}
}

// TestIncrementalEquivalenceCorpus runs every corpus program cold and
// warm through one scheduler and checks both against the full pipeline.
// A warm rerun of unchanged source must be served from the cache.
func TestIncrementalEquivalenceCorpus(t *testing.T) {
	corpus, err := Corpus()
	if err != nil {
		t.Fatal(err)
	}
	for i := range corpus {
		p := &corpus[i]
		t.Run(p.Name, func(t *testing.T) {
			full := freshRaces(t, p, p.Source)
			s := newScheduler(t)
			cold, cached := schedRaces(t, s, p, p.Source)
			requireSameRaces(t, "cold", full, cold)
			if cached {
				t.Error("cold run on an empty cache was served from it")
			}
			warm, cached := schedRaces(t, s, p, p.Source)
			requireSameRaces(t, "warm", full, warm)
			if !cached {
				t.Error("warm rerun of unchanged source missed the cache")
			}
			if st := s.Stats(); st.CacheHits != 1 || st.CacheMisses != 1 {
				t.Errorf("cache accounting: hits=%d misses=%d, want 1 and 1",
					st.CacheHits, st.CacheMisses)
			}
		})
	}
}

// TestIncrementalEquivalenceMetamorphic is the edit-sequence arm: for
// every program, seed a scheduler's cache with the canonical source,
// apply each metamorphic transform as the "edit", and compare the warm
// scheduler's races on the edited text against a from-scratch analysis
// of the same text. An edit that changes the text must miss the cache;
// one that leaves it byte-identical must hit.
func TestIncrementalEquivalenceMetamorphic(t *testing.T) {
	corpus, err := Corpus()
	if err != nil {
		t.Fatal(err)
	}
	for i := range corpus {
		p := &corpus[i]
		t.Run(p.Name, func(t *testing.T) {
			canonical, err := FormattedSource(p, Transforms()[0])
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range Transforms() {
				s := newScheduler(t)
				schedRaces(t, s, p, canonical)
				text, err := FormattedSource(p, tr)
				if err != nil {
					t.Fatalf("%s: %v", tr.Name, err)
				}
				got, cached := schedRaces(t, s, p, text)
				requireSameRaces(t, tr.Name, freshRaces(t, p, text), got)
				if want := text == canonical; cached != want {
					t.Errorf("%s: served from cache = %v, want %v", tr.Name, cached, want)
				}
			}
		})
	}
}
