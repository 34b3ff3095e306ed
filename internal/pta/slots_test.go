package pta_test

import (
	"context"
	"testing"

	"o2"
	"o2/internal/ir"
	"o2/internal/pta"
	"o2/internal/truth"
	"o2/internal/workload"
)

// solvedPrograms yields the solved analyses of the five preset-analyze
// presets and of every truth-corpus program.
func solvedPrograms(t *testing.T, fn func(name string, a *pta.Analysis)) {
	t.Helper()
	for _, name := range []string{"linux", "telegram", "zookeeper", "sqlite3", "gosync"} {
		p, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown preset %q", name)
		}
		cfg := o2.DefaultConfig()
		res, err := o2.Analyze(context.Background(), workload.Build(p, cfg.Entries), cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fn(name, res.Analysis)
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
		fn(p.Name, res.Analysis)
	}
}

// TestPointsToInMatchesPointsTo checks the per-context variable slots
// against the PAG's node table: for every call-graph node and every local
// of its function, PointsToIn and PointsTo return the same set, that set
// is the variable node's own when the node table has one for ⟨v, ctx⟩ and
// empty otherwise, and every variable node is reached through exactly one
// slot.
func TestPointsToInMatchesPointsTo(t *testing.T) {
	type varCtx struct {
		v   *ir.Var
		ctx pta.CtxID
	}
	solvedPrograms(t, func(name string, a *pta.Analysis) {
		nodes := map[varCtx]*pta.Bits{}
		for _, n := range pta.VarNodes(a) {
			nodes[varCtx{n.Var, n.Ctx}] = n.Pts
		}
		found := 0
		for f := 0; f < a.CG.NumNodes(); f++ {
			fc := a.CG.Get(pta.FnCtxID(f))
			for _, v := range fc.Fn.Locals {
				in := a.PointsToIn(pta.FnCtxID(f), v)
				if at := a.PointsTo(v, fc.Ctx); at != in {
					t.Fatalf("%s: %s in node %d: PointsToIn %v, PointsTo %v", name, v, f, in.Slice(), at.Slice())
				}
				want, ok := nodes[varCtx{v, fc.Ctx}]
				switch {
				case ok && in != want:
					t.Fatalf("%s: %s in node %d: slot set %v, node table %v", name, v, f, in.Slice(), want.Slice())
				case !ok && !in.IsEmpty():
					t.Fatalf("%s: %s in node %d has %v but no node", name, v, f, in.Slice())
				case ok:
					found++
				}
			}
		}
		if found != len(nodes) || found != a.Stats().Pointers {
			t.Fatalf("%s: %d slots reach a node, node table has %d, stats %d", name, found, len(nodes), a.Stats().Pointers)
		}
	})
}

// TestEdgesAtMatchesOut checks EdgesAt against the in-order filter of Out
// for every call-graph node and instruction index.
func TestEdgesAtMatchesOut(t *testing.T) {
	solvedPrograms(t, func(name string, a *pta.Analysis) {
		for f := 0; f < a.CG.NumNodes(); f++ {
			node := pta.FnCtxID(f)
			total := 0
			for idx := range a.CG.Get(node).Fn.Body {
				var want []pta.Edge
				for _, e := range a.CG.Out(node) {
					if e.InstrIdx == idx {
						want = append(want, e)
					}
				}
				got := a.CG.EdgesAt(node, idx)
				if len(got) != len(want) {
					t.Fatalf("%s: node %d instr %d: EdgesAt %v, filter %v", name, f, idx, got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s: node %d instr %d: EdgesAt %v, filter %v", name, f, idx, got, want)
					}
				}
				total += len(got)
			}
			if total != len(a.CG.Out(node)) {
				t.Fatalf("%s: node %d: EdgesAt covers %d of %d edges", name, f, total, len(a.CG.Out(node)))
			}
		}
	})
}

// TestEdgesAtAllocFree pins EdgesAt to a subslice: SHB construction and
// OSA call it once per visited call or allocation instruction.
func TestEdgesAtAllocFree(t *testing.T) {
	a := solve(t, queryProgram, origin1())
	main := a.MainNode()
	body := a.CG.Get(main).Fn.Body
	edges := 0
	allocs := testing.AllocsPerRun(100, func() {
		edges = 0
		for idx := range body {
			edges += len(a.CG.EdgesAt(main, idx))
		}
	})
	if edges == 0 {
		t.Fatal("main has no call-graph edges")
	}
	if allocs != 0 {
		t.Fatalf("EdgesAt allocates %v per walk of main", allocs)
	}
}
