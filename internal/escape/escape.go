// Package escape implements a classical thread-escape analysis in the
// style of TLOA (Halpert et al., PACT 2007), the comparator of the paper's
// Table 7. An object escapes its allocating thread when it is reachable —
// through any chain of field loads — from a static field, from a thread or
// event-handler object, or from the attribute pointers handed to one. All
// accesses to escaped objects are conservatively thread-shared.
//
// TLOA's characteristic costs and imprecision relative to OSA are
// faithfully reproduced:
//
//   - it is run over a context-sensitive points-to result (the Table 7
//     harness uses 2-CFA, the "context-sensitive information flow" that
//     makes TLOA slow), and the escape closure itself iterates to fixpoint
//     over every field edge of the heap;
//   - static fields escape unconditionally, even when a single origin
//     touches them — OSA distinguishes those (§3.3);
//   - the answer is a boolean per object: no per-origin read/write sets.
package escape

import (
	"time"

	"o2/internal/ir"
	"o2/internal/pta"
)

// Report is the escape-analysis result.
type Report struct {
	// Escaped holds the escaped abstract objects.
	Escaped *pta.Bits
	// Objects is the total number of abstract objects.
	Objects int
	// SharedAccesses counts access statements whose base may point to an
	// escaped object (the analogue of OSA's #S-access).
	SharedAccesses int
	// Rounds counts closure iterations until fixpoint.
	Rounds  int
	Elapsed time.Duration
}

// Analyze computes thread-escape information over a solved points-to
// analysis.
func Analyze(a *pta.Analysis) *Report {
	start := time.Now()
	esc := &pta.Bits{}

	// Seed 1: anything a static field may point to escapes.
	a.ForEachStaticNode(func(sig string, pts *pta.Bits) {
		esc.UnionWith(pts)
	})
	// Seed 2: origin objects (thread/event receivers) and everything their
	// attribute pointers may point to escape to the new origin.
	for _, org := range a.Origins.Origins {
		if org.Obj != 0 {
			esc.Add(uint32(org.Obj))
		}
		for _, v := range org.AttrVars {
			esc.UnionWith(a.PointsTo(v, org.AttrCtx))
		}
	}

	// Transitive closure over heap field edges: a full sweep per round, as
	// in information-flow formulations.
	rounds := 0
	for {
		rounds++
		changed := false
		a.ForEachFieldNode(func(obj pta.ObjID, field string, pts *pta.Bits) {
			if esc.Has(uint32(obj)) {
				if esc.UnionWith(pts) {
					changed = true
				}
			}
		})
		if !changed {
			break
		}
	}

	rep := &Report{Escaped: esc, Objects: a.NumObjs(), Rounds: rounds}
	rep.SharedAccesses = countSharedAccesses(a, esc)
	rep.Elapsed = time.Since(start)
	return rep
}

// countSharedAccesses walks every reachable contexted function once and
// counts access statements that may touch an escaped object. Static field
// accesses always count (statics escape by definition here).
func countSharedAccesses(a *pta.Analysis, esc *pta.Bits) int {
	shared := map[ir.Instr]bool{}
	for id := 0; id < a.CG.NumNodes(); id++ {
		fc := a.CG.Get(pta.FnCtxID(id))
		for _, in := range fc.Fn.Body {
			switch in := in.(type) {
			case *ir.LoadField:
				markIfEscaped(a, esc, shared, in, in.Obj, pta.FnCtxID(id))
			case *ir.StoreField:
				markIfEscaped(a, esc, shared, in, in.Obj, pta.FnCtxID(id))
			case *ir.LoadIndex:
				markIfEscaped(a, esc, shared, in, in.Arr, pta.FnCtxID(id))
			case *ir.StoreIndex:
				markIfEscaped(a, esc, shared, in, in.Arr, pta.FnCtxID(id))
			case *ir.LoadStatic, *ir.StoreStatic:
				shared[in.(ir.Instr)] = true
			}
		}
	}
	return len(shared)
}

func markIfEscaped(a *pta.Analysis, esc *pta.Bits, shared map[ir.Instr]bool, in ir.Instr, base *ir.Var, f pta.FnCtxID) {
	if a.PointsToIn(f, base).Intersects(esc) {
		shared[in] = true
	}
}
