package race_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"o2"
	"o2/internal/race"
	"o2/internal/truth"
	"o2/internal/workload"
)

// TestWitnessesMatchBuildWitness pins the shared-evidence batch builder to
// the per-race one: Witnesses reuses each origin's, lockset's and segment
// pair's evidence across races, and every witness must still marshal
// byte-for-byte like BuildWitness's, on the five preset-analyze workloads
// and on every program of the truth corpus.
func TestWitnessesMatchBuildWitness(t *testing.T) {
	presets := []string{"linux", "telegram", "zookeeper", "sqlite3", "gosync"}
	if testing.Short() {
		presets = []string{"zookeeper", "gosync"}
	}
	for _, name := range presets {
		p, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown preset %q", name)
		}
		cfg := o2.DefaultConfig()
		res, err := o2.Analyze(context.Background(), workload.Build(p, cfg.Entries), cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkWitnesses(t, name, res)
	}
	programs, err := truth.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range programs {
		res, err := p.Analyze()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		checkWitnesses(t, p.Name, res)
	}
}

func checkWitnesses(t *testing.T, name string, res *o2.Result) {
	t.Helper()
	races := res.Report.Races
	ws := race.Witnesses(res.Analysis, res.Graph, res.Report)
	if len(ws) != len(races) {
		t.Fatalf("%s: %d witnesses for %d races", name, len(ws), len(races))
	}
	for i := range races {
		got, err := json.Marshal(ws[i])
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(race.BuildWitness(res.Analysis, res.Graph, &races[i]))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: race %d: Witnesses\n%s\n!= BuildWitness\n%s", name, i, got, want)
		}
	}
}
