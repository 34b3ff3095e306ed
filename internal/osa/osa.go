// Package osa implements the paper's origin-sharing analysis (Algorithm 1,
// §3.3): a linear traversal of the reachable program that computes, for
// every abstract heap location ⟨object, field⟩ (and every static field),
// the set of origins that read it and the set that write it. A location is
// origin-shared when at least two origins access it with at least one
// write, or when a replicated origin (two or more concurrent instances)
// writes it.
package osa

import (
	"context"
	"fmt"
	"math/bits"
	"sort"

	"o2/internal/ir"
	"o2/internal/obs"
	"o2/internal/pta"
)

// Key identifies an abstract memory location: either ⟨Obj⟩.Field
// (Static == "") or a static field signature.
type Key struct {
	Obj    pta.ObjID
	Field  string
	Static string
}

func (k Key) String() string {
	if k.Static != "" {
		return k.Static
	}
	return fmt.Sprintf("o%d.%s", k.Obj, k.Field)
}

// LocKey rebuilds the Key of a location ID (a PTA field or static node).
func LocKey(a *pta.Analysis, loc int32) Key {
	obj, name, static := a.Loc(pta.NodeID(loc))
	if static {
		return Key{Static: name}
	}
	return Key{Obj: obj, Field: name}
}

// Access records one access statement discovered during the traversal.
// Loc is the accessed location: the PTA node of the field or static.
type Access struct {
	Loc    int32
	Origin pta.OriginID
	Write  bool
	Instr  ir.Instr
}

// Result is the output of the analysis.
type Result struct {
	A *pta.Analysis
	// Shared lists the origin-shared locations in deterministic order.
	Shared []Key
	// Accesses are all recorded access statements (per contexted function
	// per origin, deduplicated by memoization).
	Accesses []Access
	// SharedAccesses counts access statements on shared locations (the
	// #S-access column of Table 7).
	SharedAccesses int
	// SharedObjects counts distinct abstract objects with at least one
	// shared field (the #S-obj column of Table 9).
	SharedObjects int
	// Visited counts visited ⟨function, context, origin⟩ triples.
	Visited int

	// Per-location state, indexed by location ID. dense[loc] numbers the
	// accessed locations 1, 2, … in first-access order (0: never
	// accessed); locs maps a number back to its location. The reader and
	// writer origin sets of location number i+1 are bitsets of words
	// words each, at sets[2*i*words:] and sets[(2*i+1)*words:].
	dense  []int32
	locs   []int32
	words  int
	sets   []uint64
	shared []bool
}

// IsShared reports whether the location is origin-shared.
func (r *Result) IsShared(k Key) bool {
	loc, ok := r.loc(k)
	return ok && r.shared[loc]
}

// SharedLoc reports whether the location with this ID is origin-shared.
func (r *Result) SharedLoc(loc int32) bool { return r.shared[loc] }

// OriginsOf returns the sorted origins accessing the location.
func (r *Result) OriginsOf(k Key) []pta.OriginID {
	out := []pta.OriginID{}
	loc, ok := r.loc(k)
	if !ok || r.dense[loc] == 0 {
		return out
	}
	rd, wr := r.originSets(int(r.dense[loc] - 1))
	all := make([]uint64, len(rd))
	for w := range all {
		all[w] = rd[w] | wr[w]
	}
	forEachOrigin(all, func(o pta.OriginID) { out = append(out, o) })
	return out
}

// forEachOrigin calls fn for each origin of an origin set, in ascending
// order.
func forEachOrigin(set []uint64, fn func(pta.OriginID)) {
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			fn(pta.OriginID(w*64 + bits.TrailingZeros64(word)))
		}
	}
}

// loc finds the location ID of a key.
func (r *Result) loc(k Key) (int32, bool) {
	var id pta.NodeID
	var ok bool
	if k.Static != "" {
		id, ok = r.A.StaticLoc(k.Static)
	} else {
		id, ok = r.A.FieldLoc(k.Obj, k.Field)
	}
	return int32(id), ok
}

// originSets returns the reader and writer sets of location number i+1.
func (r *Result) originSets(i int) (readers, writers []uint64) {
	base := 2 * i * r.words
	return r.sets[base : base+r.words], r.sets[base+r.words : base+2*r.words]
}

type visitKey struct {
	fn     pta.FnCtxID
	origin pta.OriginID
}

// Analyze runs the origin-sharing analysis over a solved pointer analysis.
func Analyze(a *pta.Analysis) *Result { return AnalyzeWith(a, nil) }

// AnalyzeWith is Analyze with an observability registry: the traversal
// runs under an "osa" span and the sharing sizes are published as gauges.
func AnalyzeWith(a *pta.Analysis, reg *obs.Registry) *Result {
	r, _ := AnalyzeCtx(context.Background(), a, reg)
	return r
}

// AnalyzeCtx is AnalyzeWith under a context: the traversal polls the
// context every few hundred visited functions and aborts promptly when it
// ends, returning the partial result and pta.ErrCanceled (or pta.ErrBudget
// when the context deadline expired). The pointer analysis must have
// completed: only then does every accessed location have its node.
func AnalyzeCtx(ctx context.Context, a *pta.Analysis, reg *obs.Registry) (*Result, error) {
	sp := reg.StartSpan("osa")
	defer sp.End()
	r := &Result{
		A:      a,
		dense:  make([]int32, a.NumNodes()),
		words:  (a.Origins.Len() + 63) / 64,
		shared: make([]bool, a.NumNodes()),
	}
	latch, stopWatch := pta.WatchCancel(ctx)
	defer stopWatch()
	v := &visitor{a: a, r: r, seen: map[visitKey]bool{}, ctx: ctx, latch: latch}
	v.visit(a.MainNode(), pta.MainOrigin)
	if v.err != nil {
		return r, v.err
	}
	r.finish()
	if reg != nil {
		reg.SetGauge("osa.locations", int64(len(r.locs)))
		reg.SetGauge("osa.shared_locations", int64(len(r.Shared)))
		reg.SetGauge("osa.shared_objects", int64(r.SharedObjects))
		reg.SetGauge("osa.shared_accesses", int64(r.SharedAccesses))
		reg.SetGauge("osa.accesses", int64(len(r.Accesses)))
		reg.SetGauge("osa.visited", int64(r.Visited))
	}
	return r, nil
}

type visitor struct {
	a     *pta.Analysis
	r     *Result
	seen  map[visitKey]bool
	ctx   context.Context
	latch *pta.Latch // trips when ctx ends; nil when not cancellable
	tick  int
	err   error
}

func (v *visitor) visit(fn pta.FnCtxID, origin pta.OriginID) {
	if v.err != nil {
		return
	}
	v.tick++
	if v.tick&255 == 0 && v.latch.Tripped() {
		v.err = pta.CtxErr(v.ctx.Err())
		return
	}
	k := visitKey{fn, origin}
	if v.seen[k] {
		return
	}
	v.seen[k] = true
	v.r.Visited++
	fc := v.a.CG.Get(fn)
	for idx, in := range fc.Fn.Body {
		switch in := in.(type) {
		case *ir.LoadField:
			v.access(fn, origin, in, in.Obj, in.Field, false)
		case *ir.StoreField:
			v.access(fn, origin, in, in.Obj, in.Field, true)
		case *ir.LoadIndex:
			v.access(fn, origin, in, in.Arr, ir.ArrayField, false)
		case *ir.StoreIndex:
			v.access(fn, origin, in, in.Arr, ir.ArrayField, true)
		case *ir.LoadStatic:
			v.static(origin, in, in.Class.Name+"."+in.Field, false)
		case *ir.StoreStatic:
			v.static(origin, in, in.Class.Name+"."+in.Field, true)
		case *ir.Call:
			for _, e := range v.a.CG.EdgesAt(fn, idx) {
				switch e.Kind {
				case pta.EdgeCall, pta.EdgeInit:
					// Constructors of origin allocations execute in the
					// allocating (parent) origin, even though OPA analyzes
					// their pointers under the new origin's context.
					v.visit(e.Callee, origin)
				case pta.EdgeSpawn:
					v.visit(e.Callee, e.Origin)
				}
			}
		case *ir.Alloc:
			for _, e := range v.a.CG.EdgesAt(fn, idx) {
				if e.Kind == pta.EdgeCall || e.Kind == pta.EdgeInit {
					v.visit(e.Callee, origin)
				}
			}
		}
	}
}

func (v *visitor) access(fn pta.FnCtxID, origin pta.OriginID, in ir.Instr, base *ir.Var, field string, write bool) {
	v.a.ForEachFieldLoc(fn, base, field, func(_ pta.ObjID, loc pta.NodeID) {
		v.record(int32(loc), origin, write, in)
	})
}

func (v *visitor) static(origin pta.OriginID, in ir.Instr, sig string, write bool) {
	if loc, ok := v.a.StaticLoc(sig); ok {
		v.record(int32(loc), origin, write, in)
	}
}

func (v *visitor) record(loc int32, origin pta.OriginID, write bool, in ir.Instr) {
	r := v.r
	n := r.dense[loc]
	if n == 0 {
		r.locs = append(r.locs, loc)
		n = int32(len(r.locs))
		r.dense[loc] = n
		r.sets = append(r.sets, make([]uint64, 2*r.words)...)
	}
	rd, wr := r.originSets(int(n - 1))
	set := rd
	if write {
		set = wr
	}
	set[origin>>6] |= 1 << (origin & 63)
	r.Accesses = append(r.Accesses, Access{Loc: loc, Origin: origin, Write: write, Instr: in})
}

func (r *Result) finish() {
	for i, loc := range r.locs {
		rd, wr := r.originSets(i)
		writers, all := 0, 0
		for w := range wr {
			writers += bits.OnesCount64(wr[w])
			all += bits.OnesCount64(rd[w] | wr[w])
		}
		if writers == 0 {
			continue
		}
		shared := all >= 2
		if !shared {
			// A replicated origin has concurrent instances: a write from it
			// is shared with its sibling instance.
			forEachOrigin(wr, func(o pta.OriginID) {
				if r.A.Origins.Get(o).Replicated {
					shared = true
				}
			})
		}
		if shared {
			r.shared[loc] = true
			r.Shared = append(r.Shared, LocKey(r.A, loc))
		}
	}
	sort.Slice(r.Shared, func(i, j int) bool {
		a, b := r.Shared[i], r.Shared[j]
		if a.Obj != b.Obj {
			return a.Obj < b.Obj
		}
		if a.Field != b.Field {
			return a.Field < b.Field
		}
		return a.Static < b.Static
	})
	// Statics carry object 0, so the sorted list groups each object's
	// shared fields after them.
	for i, k := range r.Shared {
		if k.Static == "" && (i == 0 || r.Shared[i-1].Obj != k.Obj) {
			r.SharedObjects++
		}
	}
	// Count distinct access statements touching a shared location (one
	// statement may be visited under several origins or contexts).
	sharedInstrs := map[ir.Instr]bool{}
	for _, acc := range r.Accesses {
		if r.shared[acc.Loc] {
			sharedInstrs[acc.Instr] = true
		}
	}
	r.SharedAccesses = len(sharedInstrs)
}
