package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"o2/internal/ir"
	"o2/internal/lang"
	"o2/internal/obs"
	"o2/internal/osa"
	"o2/internal/pta"
)

// TestGateMatchesCheckedInGolden runs the gate workloads once and checks
// them against the committed golden — the same comparison `ci.sh
// bench-gate` performs — then injects drift into the golden and asserts
// the comparison fails with a diff naming the drifted field.
func TestGateMatchesCheckedInGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("gate runs three full pipelines")
	}
	rep, err := RunGate(Opts{})
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "bench_gate_golden.json"))
	if err != nil {
		t.Fatalf("missing golden (regenerate with `go run ./cmd/o2bench -table gate -update-golden`): %v", err)
	}
	if err := rep.CompareGolden(golden); err != nil {
		t.Fatalf("gate drifted from checked-in golden: %v", err)
	}

	// Injected drift: a changed pairs-checked count must fail the gate.
	tampered := bytes.Replace(golden, []byte(`"race.pairs_checked": 245`), []byte(`"race.pairs_checked": 999`), 1)
	if bytes.Equal(tampered, golden) {
		t.Fatal("tamper target not found in golden; update the test")
	}
	err = rep.CompareGolden(tampered)
	if err == nil {
		t.Fatal("gate accepted tampered pairs-checked golden")
	}
	if !strings.Contains(err.Error(), "race.pairs_checked") {
		t.Fatalf("drift error does not name the drifted counter: %v", err)
	}

	// Times must NOT be gated: scaling every span time in the golden
	// changes nothing deterministic, so the comparison still passes.
	var full GateReport
	if err := json.Unmarshal(golden, &full); err != nil {
		t.Fatal(err)
	}
	for _, p := range full.Presets {
		if p.Stats == nil {
			continue
		}
		for i := range p.Stats.Phases {
			p.Stats.Phases[i].WallNS += 1_000_000_000
			p.Stats.Phases[i].CPUNS += 1_000_000_000
		}
	}
	timed, err := full.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.CompareGolden(timed); err != nil {
		t.Fatalf("gate rejected a time-only change (times must not be gated): %v", err)
	}
}

// TestGateDeterministicAcrossRuns pins the gate's premise: two runs of
// the same workloads produce byte-identical deterministic projections.
func TestGateDeterministicAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("gate runs three full pipelines twice")
	}
	a, err := RunGate(Opts{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunGate(Opts{})
	if err != nil {
		t.Fatal(err)
	}
	da, err := a.Deterministic().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	db, err := b.Deterministic().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(da, db) {
		t.Fatalf("gate report not deterministic:\n%s", diffLines(string(da), string(db)))
	}
}

// TestAllocBudgets pins the allocation-budget arithmetic: ceilings carry
// 10% headroom plus the noise floor, a measurement within its ceiling
// passes, one beyond it fails naming the phase, and goldens without
// budgets gate nothing.
func TestAllocBudgets(t *testing.T) {
	measured := map[string]AllocBudget{
		"zookeeper/pta":    {Allocs: 1000, Bytes: 500_000},
		"zookeeper/detect": {Allocs: 5, Bytes: 16_000},
	}
	budgets := budgetFromMeasured(measured)
	if b := budgets["zookeeper/pta"]; b.Allocs != 1000+100+32 || b.Bytes != 500_000+50_000+8192 {
		t.Fatalf("budget headroom wrong: %+v", b)
	}
	// The noise floor keeps near-zero phases gateable: a stray background
	// allocation on a 5-alloc phase must not trip the ceiling.
	if b := budgets["zookeeper/detect"]; b.Allocs < 5+32 {
		t.Fatalf("near-zero phase lacks noise floor: %+v", b)
	}
	if err := checkAllocBudgets(measured, budgets); err != nil {
		t.Fatalf("measurement exceeded its own budget: %v", err)
	}
	over := map[string]AllocBudget{
		"zookeeper/pta": {Allocs: budgets["zookeeper/pta"].Allocs + 1, Bytes: 0},
	}
	err := checkAllocBudgets(over, budgets)
	if err == nil {
		t.Fatal("regression beyond budget accepted")
	}
	if !strings.Contains(err.Error(), "zookeeper/pta") {
		t.Fatalf("budget error does not name the regressed phase: %v", err)
	}
	if err := checkAllocBudgets(measured, nil); err != nil {
		t.Fatalf("golden without budgets must gate nothing: %v", err)
	}
	// A phase present in the golden but not measured (e.g. renamed) is
	// skipped rather than failed — CompareGolden catches schema drift.
	if err := checkAllocBudgets(nil, budgets); err != nil {
		t.Fatalf("unmeasured budget key must not fail: %v", err)
	}
}

// TestAllocBudgetsRelease pins which toolchains a golden's budgets gate:
// every patch of the release they were recorded with, no other release,
// and every toolchain when the golden names none.
func TestAllocBudgetsRelease(t *testing.T) {
	for _, c := range []struct {
		rec, ver string
		want     bool
	}{
		{"go1.24", "go1.24.0", true},
		{"go1.24", "go1.24.9", true},
		{"go1.24", "go1.23.4", false},
		{"go1.24", "go1.22.12", false},
		{"go1.24", "go1.25rc1", false},
		{"go1.24", "devel go1.25-abcdef", false},
		{"", "go1.22.1", true},
	} {
		if got := gatesAllocs(c.rec, c.ver); got != c.want {
			t.Errorf("gatesAllocs(%q, %q) = %v, want %v", c.rec, c.ver, got, c.want)
		}
	}
	golden, err := os.ReadFile("testdata/bench_gate_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var gr GateReport
	if err := json.Unmarshal(golden, &gr); err != nil {
		t.Fatal(err)
	}
	if len(gr.AllocBudgets) > 0 && gr.AllocBudgetsGo == "" {
		t.Fatal("golden has alloc budgets but does not name the Go release they were recorded with")
	}
}

// exactSrc is a program whose OSA phase keeps at most 8 entries in each
// of its maps: maps that small allocate the same way on every run and
// every Go release, so the phase's allocation count is a constant and an
// exact reading must reproduce it.
const exactSrc = `
class S { field v; }
class W {
  field s;
  W(s) { this.s = s; }
  run() { x = this.s; x.v = this; }
}
main {
  s = new S();
  w1 = new W(s);
  w2 = new W(s);
  w1.start();
  w2.start();
}
`

// TestGateAllocCountExact pins the gate's allocation reading to
// testing.AllocsPerRun: the osa count measurePhase records (the reading
// RunPTAObs and RunDetect take at every phase boundary) equals the exact
// count of the same call.
func TestGateAllocCountExact(t *testing.T) {
	entries := ir.DefaultEntryConfig()
	prog, err := lang.Compile("exact.mini", exactSrc, entries)
	if err != nil {
		t.Fatal(err)
	}
	a := pta.New(prog, pta.Config{Policy: POPA, Entries: entries})
	if err := a.Solve(); err != nil {
		t.Fatal(err)
	}
	run := func() { osa.AnalyzeWith(a, nil) }
	run()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	reg := obs.New()
	measurePhase(reg, "osa", run)
	got := reg.Snapshot().Gauges["osa.heap_allocs"]
	want := testing.AllocsPerRun(10, run)
	if got == 0 || float64(got) != want {
		t.Fatalf("gate counted %d osa allocations, AllocsPerRun counts %v", got, want)
	}
}

func TestGateUnknownPreset(t *testing.T) {
	old := GatePresetNames
	GatePresetNames = []string{"no-such-preset"}
	defer func() { GatePresetNames = old }()
	if _, err := RunGate(Opts{}); err == nil {
		t.Fatal("unknown preset accepted")
	}
}
