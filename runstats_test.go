package o2

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"o2/internal/ir"
	"o2/internal/obs"
	"o2/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the RunStats golden file")

// TestRunStatsGolden pins the RunStats JSON schema: field names, map keys,
// the span-tree shape, and zero-value omission. It analyzes a fixed
// workload at Workers=1 (so every counter, including the cache hit/miss
// splits, is reproducible) and compares the report's deterministic
// projection byte-for-byte against testdata/runstats_golden.json.
//
// A deliberate schema change (renamed counter, new phase, bumped
// SchemaVersion) regenerates the golden with:
//
//	go test -run RunStatsGolden -args -update
func TestRunStatsGolden(t *testing.T) {
	rs := analyzeAvrora(t, obs.New())
	got, err := rs.Deterministic().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	path := filepath.Join("testdata", "runstats_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with `go test -run RunStatsGolden -args -update`): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("RunStats schema drifted from %s\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestRunStatsShape checks the schema properties the golden cannot express
// on its own: the version stamp, the exact top-level key set, and that
// zero-valued counters are omitted rather than serialized.
func TestRunStatsShape(t *testing.T) {
	rs := analyzeAvrora(t, obs.New())
	if rs.Schema != obs.SchemaVersion {
		t.Errorf("schema = %d, want %d", rs.Schema, obs.SchemaVersion)
	}
	data, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"schema", "phases", "counters", "gauges", "rates", "introspection"} {
		if _, ok := top[key]; !ok {
			t.Errorf("report missing top-level key %q", key)
		}
		delete(top, key)
	}
	delete(top, "histograms") // optional: present only when histograms recorded
	for key := range top {
		t.Errorf("report has unexpected top-level key %q", key)
	}
	for name, v := range rs.Counters {
		if v == 0 {
			t.Errorf("zero-valued counter %q serialized (zero values must be omitted)", name)
		}
	}
	for name, v := range rs.Gauges {
		if v == 0 {
			t.Errorf("zero-valued gauge %q serialized (zero values must be omitted)", name)
		}
	}
	if len(rs.Phases) != 1 || rs.Phases[0].Name != "analyze" {
		t.Fatalf("root span tree = %+v, want single root %q", rs.Phases, "analyze")
	}
	var names []string
	for _, c := range rs.Phases[0].Children {
		names = append(names, c.Name)
	}
	want := []string{"pta", "osa", "shb", "detect"}
	if len(names) != len(want) {
		t.Fatalf("pipeline phases = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("pipeline phases = %v, want %v", names, want)
		}
	}
}

func analyzeAvrora(t *testing.T, reg *obs.Registry) *obs.RunStats {
	t.Helper()
	p, ok := workload.ByName("avrora")
	if !ok {
		t.Fatal("avrora preset missing")
	}
	prog := workload.Build(p, ir.DefaultEntryConfig())
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.Obs = reg
	res, err := Analyze(context.Background(), prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.RunStats == nil {
		t.Fatal("RunStats nil with Obs configured")
	}
	return res.RunStats
}
