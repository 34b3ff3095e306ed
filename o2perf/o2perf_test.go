package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"

	"o2"
	"o2/internal/ir"
	"o2/internal/lang"
	"o2/internal/report"
	"o2/internal/sched"
)

func TestSameSeedSameInputs(t *testing.T) {
	a, err := buildCorpusInput(7, 256)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildCorpusInput(7, 256)
	if err != nil {
		t.Fatal(err)
	}
	c, err := buildCorpusInput(8, 256)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.manifest, b.manifest) {
		t.Error("same seed, different manifests")
	}
	if bytes.Equal(a.manifest, c.manifest) {
		t.Error("different seeds, same manifest")
	}

	ra, err := buildRequests(7, 256, "r")
	if err != nil {
		t.Fatal(err)
	}
	rb, err := buildRequests(7, 256, "r")
	if err != nil {
		t.Fatal(err)
	}
	rc, err := buildRequests(8, 256, "r")
	if err != nil {
		t.Fatal(err)
	}
	join := func(rs []request) []byte { return bytes.Join(requestBodies(rs), []byte("\n")) }
	if !bytes.Equal(join(ra), join(rb)) {
		t.Error("same seed, different requests")
	}
	if bytes.Equal(join(ra), join(rc)) {
		t.Error("different seeds, same requests")
	}

	pa, pb, pc := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7)), rand.New(rand.NewSource(8))
	var oa, ob, oc []int
	for i := 0; i < 8; i++ {
		oa, ob, oc = append(oa, pa.Perm(len(presetNames))...), append(ob, pb.Perm(len(presetNames))...), append(oc, pc.Perm(len(presetNames))...)
	}
	if !equalInts(oa, ob) || equalInts(oa, oc) {
		t.Error("preset order does not follow the seed")
	}
}

func requestBodies(rs []request) [][]byte {
	var out [][]byte
	for _, r := range rs {
		out = append(out, r.body)
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRepeatShare(t *testing.T) {
	reqs, err := buildRequests(1, serveSeqLen, "r")
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	repeats := 0
	for i, r := range reqs {
		if r.repeat {
			repeats++
			continue
		}
		var body struct{ Files map[string]string }
		if err := json.Unmarshal(r.body, &body); err != nil {
			t.Fatal(err)
		}
		for n := range body.Files {
			if names[n] {
				t.Fatalf("request %d reuses file name %s", i, n)
			}
			names[n] = true
		}
	}
	if share := float64(repeats) / float64(len(reqs)); math.Abs(share-serveRepeatShare) > 0.03 {
		t.Errorf("repeat share %.3f, want about %.2f", share, serveRepeatShare)
	}
}

func TestP90NeedsHundredSamples(t *testing.T) {
	xs := make([]float64, minP90Samples-1)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, _, err := latencyQuantiles(xs); err == nil {
		t.Errorf("p90 reported from %d samples", len(xs))
	}
	xs = append(xs, float64(len(xs)))
	p50, p90, err := latencyQuantiles(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p50-49.5) > 1e-9 || math.Abs(p90-89.1) > 1e-9 {
		t.Errorf("p50 %v p90 %v, want 49.5 and 89.1", p50, p90)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the self-tests check.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) *benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return &s
}

// checkMetrics fails unless m has exactly the named metrics with their
// units, and every name is valid.
func checkMetrics(t *testing.T, m metrics, want []struct{ Name, Unit string }) {
	t.Helper()
	if err := m.validate(); err != nil {
		t.Error(err)
	}
	seen := map[string]bool{}
	for _, w := range want {
		seen[w.Name] = true
		got, ok := m[w.Name]
		if !ok {
			t.Errorf("metric %s missing", w.Name)
		} else if got.Unit != w.Unit {
			t.Errorf("metric %s unit %q, BENCHMARK.json says %q", w.Name, got.Unit, w.Unit)
		}
	}
	for n := range m {
		if !seen[n] {
			t.Errorf("metric %s not in BENCHMARK.json", n)
		}
	}
}

func TestMetricNamesMatchSpec(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var specNames []string
	for _, w := range s.Workloads {
		specNames = append(specNames, w.Name)
	}
	sort.Strings(names)
	sort.Strings(specNames)
	if len(names) != len(specNames) {
		t.Fatalf("workloads %v, BENCHMARK.json has %v", names, specNames)
	}
	for i := range names {
		if names[i] != specNames[i] {
			t.Fatalf("workloads %v, BENCHMARK.json has %v", names, specNames)
		}
	}
	checkMetrics(t, tracedMetrics(newTracer(false), newTracer(true), &layerCounts{}), s.PerLayer)
	for _, m := range append(s.EndToEnd, s.PerLayer...) {
		if !metricName.MatchString(m.Name) {
			t.Errorf("BENCHMARK.json metric %q is not [A-Za-z0-9_.-]+", m.Name)
		}
	}
}

// TestWorkloadsEndToEnd runs every workload briefly, untraced and
// traced, and checks the verdicts and the reported metric names.
func TestWorkloadsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	s := loadSpec(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			out, err := w.run(1, 400*time.Millisecond, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if out.failed+out.wrongVerdicts > 0 || out.attempted == 0 {
				t.Errorf("%s traced=%v: attempted %d failed %d wrong %d", w.name, traced, out.attempted, out.failed, out.wrongVerdicts)
			}
			if traced {
				checkMetrics(t, out.metrics, s.PerLayer)
			} else {
				checkMetrics(t, out.metrics, s.EndToEnd)
			}
		}
	}
}

func TestPresetLayersCoverTracedWall(t *testing.T) {
	progs, err := buildPresets()
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(false)
	for _, prog := range progs {
		start := time.Now()
		if _, err := analyzeTraced(prog, tr, nil); err != nil {
			t.Fatal(err)
		}
		tr.root(start)
	}
	if covered := tr.setLayerMetrics(metrics{}); covered < 0.95 {
		t.Errorf("layer self times cover %.3f of the traced wall time, want at least 0.95", covered)
	}
}

// TestExactAllocsMatchAllocsPerRun pins the traced lang layer's object
// count to testing.AllocsPerRun: both measure the same call.
// lang.CompileFiles allocates a few objects more or less from call to
// call (map growth), so the counts are compared call by call.
func TestExactAllocsMatchAllocsPerRun(t *testing.T) {
	pool, err := truthPool(true)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{pool[0].name + ".mini": pool[0].source}
	entries := o2.DefaultConfig().Entries
	tr := newTracer(true)
	compile := func() {
		if _, err := lang.CompileFiles(files, entries); err != nil {
			t.Error(err)
		}
	}
	tr.call("lang", compile)
	l := tr.layers["lang"]
	counts := make([]uint64, 0, 2) // preallocated: the wrapper must not allocate
	for i := 0; i < 10; i++ {
		counts = counts[:0]
		want := testing.AllocsPerRun(1, func() {
			before := l.mallocs
			tr.call("lang", compile)
			counts = append(counts, l.mallocs-before)
		})
		// AllocsPerRun calls the function twice and measures the second.
		if len(counts) != 2 || float64(counts[1]) != want {
			t.Fatalf("traced lang allocations %v, testing.AllocsPerRun %v", counts, want)
		}
	}
}

// TestLayersMatchAnalyze checks that the layer-by-layer path the traced
// run takes reports the race sets o2.Analyze reports.
func TestLayersMatchAnalyze(t *testing.T) {
	ctx := context.Background()
	pool, err := truthPool(false)
	if err != nil {
		t.Fatal(err)
	}
	pool = append(pool, table10Pool()...)
	var progs []*ir.Program
	var cfgs []o2.Config
	for _, it := range pool {
		cfg := o2.DefaultConfig()
		cfg.Android, cfg.ReplicateEvents = it.android, it.replic
		prog, err := compileLayer(o2.Source{Name: it.name + ".mini", Bytes: []byte(it.source)}, cfg, nil)
		if err != nil {
			t.Fatalf("%s: %v", it.name, err)
		}
		progs, cfgs = append(progs, prog), append(cfgs, cfg)
	}
	presets, err := buildPresets()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range presets {
		progs, cfgs = append(progs, p), append(cfgs, o2.DefaultConfig())
	}
	for i, prog := range progs {
		res, err := o2.Analyze(ctx, prog, cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		r, err := analyzeLayers(ctx, prog, cfgs[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		if !report.SameKeys(report.Canonical(res.Report, res.Analysis.Origins), r.canonical()) {
			t.Errorf("program %d: layer-by-layer race set differs from o2.Analyze", i)
		}
	}
}

// TestOraclesAcceptTheAnalysisAndRejectChanges checks both directions of
// every oracle the serve workload uses, on keys projected from scheduler
// summaries as the HTTP client sees them.
func TestOraclesAcceptTheAnalysisAndRejectChanges(t *testing.T) {
	reqs, err := buildRequests(3, 200, "t")
	if err != nil {
		t.Fatal(err)
	}
	s := sched.New(sched.Options{Workers: 1, CacheEntries: -1})
	defer s.Shutdown(context.Background())
	for _, r := range reqs {
		if r.repeat {
			continue
		}
		var body struct {
			Files  map[string]string
			Config struct {
				Android         bool `json:"android"`
				ReplicateEvents bool `json:"replicate_events"`
			}
		}
		if err := json.Unmarshal(r.body, &body); err != nil {
			t.Fatal(err)
		}
		cfg := o2.DefaultConfig()
		cfg.Android, cfg.ReplicateEvents = body.Config.Android, body.Config.ReplicateEvents
		job, err := s.SubmitWait(context.Background(), sched.Request{Files: body.Files, Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		<-job.Done()
		keys, err := responseKeys(job.Summary())
		if err != nil {
			t.Fatal(err)
		}
		if !r.oracle.ok(keys) {
			t.Errorf("%s: oracle rejects the analysis", r.oracle.name)
		}
		if r.oracle.ok(broken(keys, &r.oracle)) {
			t.Errorf("%s: oracle accepts a wrong race set", r.oracle.name)
		}
	}
}

// broken returns a wrong verdict for o: a true race or a Table 10 race
// left out, or more false positives than the baseline allows.
func broken(keys []report.RaceKey, o *oracle) []report.RaceKey {
	switch {
	case o.races > 0:
		return keys[1:]
	case len(o.expected) > 0:
		var out []report.RaceKey
		for _, k := range keys {
			if k.Ident() != o.expected[0].Ident() {
				out = append(out, k)
			}
		}
		return out
	}
	out := append([]report.RaceKey(nil), keys...)
	for i := 0; i <= o.maxFP; i++ {
		out = append(out, report.RaceKey{Loc: "spurious", AFile: "x.mini", ALine: 1, BFile: "x.mini", BLine: i + 2})
	}
	return report.Normalize(out)
}
