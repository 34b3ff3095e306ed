package o2

import (
	"bytes"
	"context"
	"testing"

	"o2/internal/ir"
	"o2/internal/obs"
	"o2/internal/workload"
)

// analyzePresetStats analyzes a preset with observability on at the
// given worker count (0 = GOMAXPROCS).
func analyzePresetStats(t *testing.T, preset string, workers int) *obs.RunStats {
	t.Helper()
	p, ok := workload.ByName(preset)
	if !ok {
		t.Fatalf("preset %q missing", preset)
	}
	prog := workload.Build(p, ir.DefaultEntryConfig())
	cfg := DefaultConfig()
	cfg.Workers = workers
	cfg.Obs = obs.New()
	res, err := Analyze(context.Background(), prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res.RunStats
}

// TestIntrospectionShape checks the attribution invariants the byte
// stability test cannot express: the schema stamp, a populated ranked
// top-K, and rank monotonicity.
func TestIntrospectionShape(t *testing.T) {
	in := analyzePresetStats(t, "avrora", 0).Introspection
	if in == nil {
		t.Fatal("no introspection section with Obs configured")
	}
	if in.Schema != obs.IntrospectionSchema {
		t.Errorf("schema = %d, want %d", in.Schema, obs.IntrospectionSchema)
	}
	if in.Origins == 0 || len(in.TopK) == 0 {
		t.Fatalf("empty attribution: origins=%d topk=%d", in.Origins, len(in.TopK))
	}
	if len(in.TopK) > obs.IntrospectionTopK {
		t.Fatalf("top-K overflow: %d", len(in.TopK))
	}
	if in.TotalPairs == 0 {
		t.Error("no candidate pairs attributed")
	}
	for i := range in.TopK {
		c := &in.TopK[i]
		if c.Score != c.Pairs+c.SHBNodes+c.SHBEdges+c.CGNodes+c.Accesses {
			t.Errorf("origin %d score %d does not match its counts", c.ID, c.Score)
		}
		if i > 0 && in.TopK[i-1].Score < c.Score {
			t.Errorf("top-K not sorted at %d: %d < %d", i, in.TopK[i-1].Score, c.Score)
		}
		if c.Origin == "" {
			t.Errorf("origin %d has no label", c.ID)
		}
	}
	// The live section carries wall-time attribution; at least one origin
	// must have received a detect share (pairs were checked).
	var shared bool
	for _, c := range in.TopK {
		if c.DetectShareNS > 0 {
			shared = true
		}
	}
	if in.DetectWallNS > 0 && !shared {
		t.Error("detect wall time attributed to no origin")
	}
}

// TestIntrospectionByteStability runs each workload twice and requires
// byte-identical deterministic projections — the property that lets
// introspection reports be diffed across runs. zookeeper runs at
// Workers=1 and at the default (parallel) worker count.
func TestIntrospectionByteStability(t *testing.T) {
	for _, tc := range []struct {
		preset  string
		workers int
	}{{"avrora", 0}, {"zookeeper", 1}, {"zookeeper", 0}} {
		first, err := analyzePresetStats(t, tc.preset, tc.workers).Deterministic().MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		second, err := analyzePresetStats(t, tc.preset, tc.workers).Deterministic().MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("%s workers=%d: deterministic projections differ across runs\nfirst:\n%s\nsecond:\n%s",
				tc.preset, tc.workers, first, second)
		}
	}
}
