package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"o2/internal/cases"
	"o2/internal/corpus"
	"o2/internal/report"
	"o2/internal/server"
	"o2/internal/truth"
)

// oracle is the expected outcome of one input, taken from labels that do
// not come from the code under test: a truth-corpus program's .expect
// sidecar and its checked-in false-positive baseline, or a Table 10
// case's confirmed race count.
type oracle struct {
	name     string
	category string
	expected []report.RaceKey // truth programs: the true races
	maxFP    int              // truth programs: false positives allowed by the baseline
	races    int              // Table 10 cases: exact race count; -1 for truth programs
}

// ok reports whether actual, a canonical key set, passes the oracle. A
// truth program fails on any missed race or on more false positives than
// its baseline; a Table 10 case fails on a different race count.
func (o *oracle) ok(actual []report.RaceKey) bool {
	if o.races >= 0 {
		return len(actual) == o.races
	}
	ps := truth.ScoreProgram(o.name, o.category, o.expected, actual)
	return ps.FN == 0 && ps.FP <= o.maxFP
}

// poolItem is one program the workloads draw from.
type poolItem struct {
	name    string // base name, without extension
	source  string
	android bool
	replic  bool
	oracle  oracle // with file names still the base file name
}

// truthPool loads the truth corpus with its baseline false-positive
// counts. With defaultOnly, programs that need the android or replicate
// directive are left out.
func truthPool(defaultOnly bool) ([]poolItem, error) {
	progs, err := truth.Corpus()
	if err != nil {
		return nil, err
	}
	base, err := truth.Baseline()
	if err != nil {
		return nil, err
	}
	fp := map[string]int{}
	for _, ps := range base.Programs {
		fp[ps.Name] = ps.FP
	}
	var pool []poolItem
	for _, p := range progs {
		if defaultOnly && (p.Android || p.Replicate) {
			continue
		}
		maxFP, ok := fp[p.Name]
		if !ok {
			return nil, fmt.Errorf("truth program %s has no baseline entry", p.Name)
		}
		pool = append(pool, poolItem{
			name: p.Name, source: p.Source, android: p.Android, replic: p.Replicate,
			oracle: oracle{name: p.Name, category: p.Category, expected: p.Expected, maxFP: maxFP, races: -1},
		})
	}
	return pool, nil
}

// table10Pool returns the Table 10 case studies.
func table10Pool() []poolItem {
	var pool []poolItem
	for _, c := range cases.Table10 {
		pool = append(pool, poolItem{
			name: c.Name, source: c.Source, android: c.Android,
			oracle: oracle{name: c.Name, category: "table10", races: c.Races},
		})
	}
	return pool
}

// renamed returns the item's oracle for a copy of the program whose file
// is called file: the expected keys move to the new file name.
func (it *poolItem) renamed(file string) oracle {
	o := it.oracle
	o.name = strings.TrimSuffix(file, corpus.Ext)
	o.expected = make([]report.RaceKey, len(it.oracle.expected))
	for i, k := range it.oracle.expected {
		k.AFile, k.BFile = file, file
		o.expected[i] = k
	}
	return o
}

// corpusInput is the corpus-stream input: one NDJSON inline manifest and
// the oracle of each of its lines.
type corpusInput struct {
	manifest []byte
	oracles  []oracle
}

// corpusManifestLen is the number of programs in one manifest; a run
// streams the manifest as many times as its time allows.
const corpusManifestLen = 4096

// buildCorpusInput draws n programs with replacement from the truth
// programs that run under the default configuration, and writes them as
// one inline manifest with unique names.
func buildCorpusInput(seed int64, n int) (*corpusInput, error) {
	pool, err := truthPool(true)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	in := &corpusInput{}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := 0; i < n; i++ {
		it := &pool[rng.Intn(len(pool))]
		file := fmt.Sprintf("s%05d_%s%s", i, it.name, corpus.Ext)
		if err := enc.Encode(corpus.ManifestEntry{Name: file, Source: it.source}); err != nil {
			return nil, err
		}
		in.oracles = append(in.oracles, it.renamed(file))
	}
	in.manifest = buf.Bytes()
	return in, nil
}

// request is one serve-mixed request: its POST /analyze body and oracle.
type request struct {
	body   []byte
	oracle oracle
	repeat bool // byte-identical to an earlier request, so a cache hit
}

// serveSeqLen is the length of the request sequence; clients cycle
// through it. serveRepeatMin and serveRepeatMax bound how far back a
// repeat reaches: far enough that the original has finished, near enough
// that it is still in the scheduler's 128-entry result cache.
//
// serveRepeatShare is the share of requests that repeat, and so hit the
// cache. It is a bit under a half on purpose: at exactly a half the
// median latency sits on the gap between the fast hits and the slow
// misses, where a one-point change in the hit share moved it by a fifth.
const (
	serveSeqLen      = 4096
	serveRepeatMin   = 8
	serveRepeatMax   = 64
	serveRepeatShare = 0.4
)

// buildRequests draws n requests from the truth programs (with their
// directives) and the Table 10 cases. A share of serveRepeatShare repeat
// an earlier request byte for byte; the rest carry a fresh file name, so
// they miss the cache while their labels stay the same.
func buildRequests(seed int64, n int, prefix string) ([]request, error) {
	pool, err := truthPool(false)
	if err != nil {
		return nil, err
	}
	pool = append(pool, table10Pool()...)
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]request, n)
	for i := range reqs {
		if i >= serveRepeatMax && rng.Float64() < serveRepeatShare {
			j := i - serveRepeatMin - rng.Intn(serveRepeatMax-serveRepeatMin+1)
			reqs[i] = request{body: reqs[j].body, oracle: reqs[j].oracle, repeat: true}
			continue
		}
		it := &pool[rng.Intn(len(pool))]
		file := fmt.Sprintf("%s%05d_%s%s", prefix, i, it.name, corpus.Ext)
		body, err := json.Marshal(server.AnalyzeRequest{
			Files:  map[string]string{file: it.source},
			Config: server.ConfigRequest{Android: it.android, ReplicateEvents: it.replic},
			Wait:   true,
		})
		if err != nil {
			return nil, err
		}
		reqs[i] = request{body: body, oracle: it.renamed(file)}
	}
	return reqs, nil
}
