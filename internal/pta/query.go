package pta

import (
	"fmt"
	"sort"
	"strings"

	"o2/internal/ir"
)

// Stats summarizes an analysis run (the #Pointer / #Object / #Edge columns
// of the paper's Table 6).
type Stats struct {
	Policy   string
	Pointers int // variable nodes created (contexted pointers)
	Objects  int // abstract heap objects
	Edges    int // PAG edges
	Contexts int // interned contexts
	CGNodes  int // reachable contexted functions
	CGEdges  int
	Origins  int
	Steps    int64
	// Iterations counts worklist pops; Constraints counts registered
	// load/store/call constraints and distinct PAG edges.
	Iterations  int64
	Constraints int64
	TimedOut    bool
	Replicated  int
}

func (s Stats) String() string {
	return fmt.Sprintf("%s: %d pointers, %d objects, %d edges, %d ctxs, cg %d/%d, %d origins",
		s.Policy, s.Pointers, s.Objects, s.Edges, s.Contexts, s.CGNodes, s.CGEdges, s.Origins)
}

// Stats returns run statistics.
func (a *Analysis) Stats() Stats {
	vars := 0
	for _, n := range a.heap.nodes {
		if n.kind == nodeVar {
			vars++
		}
	}
	repl := 0
	for _, o := range a.Origins.Origins {
		if o.Replicated {
			repl++
		}
	}
	return Stats{
		Policy:      a.Cfg.Policy.Name(),
		Pointers:    vars,
		Objects:     a.heap.NumObjs(),
		Edges:       a.numEdges,
		Contexts:    len(a.ctxs.elems),
		CGNodes:     a.CG.NumNodes(),
		CGEdges:     a.CG.Edges,
		Origins:     a.Origins.Len(),
		Steps:       a.steps,
		Iterations:  a.iterations,
		Constraints: a.constraints,
		TimedOut:    a.err == ErrBudget,
		Replicated:  repl,
	}
}

var emptyBits Bits

// PointsTo returns the points-to set of variable v under context ctx. The
// returned set must not be modified. Returns an empty set if the node does
// not exist.
func (a *Analysis) PointsTo(v *ir.Var, ctx CtxID) *Bits {
	if v == nil {
		return &emptyBits
	}
	f, ok := a.CG.Lookup(v.Func, ctx)
	if !ok {
		return &emptyBits
	}
	return a.PointsToIn(f, v)
}

// PointsToIn returns the points-to set of variable v in call-graph node f,
// whose function must own v: PointsTo for a caller that already holds the
// node, at the cost of one slice read. The returned set must not be
// modified. Returns an empty set if the variable's node does not exist.
func (a *Analysis) PointsToIn(f FnCtxID, v *ir.Var) *Bits {
	if id := a.varSlots[int(a.varBase[f])+v.ID]; id != noNode {
		return &a.pts[id]
	}
	return &emptyBits
}

// FieldPointsTo returns the points-to set of ⟨obj⟩.field.
func (a *Analysis) FieldPointsTo(obj ObjID, field string) *Bits {
	if id, ok := a.FieldLoc(obj, field); ok {
		return &a.pts[id]
	}
	return &emptyBits
}

// A memory location — an object field ⟨obj⟩.field or a static field — is
// identified by its PAG node, so downstream phases can index per-location
// state by NodeID instead of hashing composite keys. Every location an
// access can touch exists once the solve has completed: a load or store
// constraint creates ⟨o⟩.f for every o its base may point to.

// NumNodes returns the number of PAG nodes: an upper bound on location
// IDs, for sizing slices indexed by location.
func (a *Analysis) NumNodes() int { return a.heap.NumNodes() }

// FieldLoc returns the location of ⟨obj⟩.field.
func (a *Analysis) FieldLoc(obj ObjID, field string) (NodeID, bool) {
	fid, ok := a.heap.fieldIDs[field]
	if !ok {
		return 0, false
	}
	id, ok := a.heap.fldIdx[fieldKey(obj, fid)]
	return id, ok
}

// ForEachFieldLoc calls fn for each object that base may point to in
// call-graph node f, with the location ⟨obj⟩.field: the locations an
// access base.field touches. The field name is looked up once, not per
// object.
func (a *Analysis) ForEachFieldLoc(f FnCtxID, base *ir.Var, field string, fn func(obj ObjID, loc NodeID)) {
	pts := a.PointsToIn(f, base)
	if pts.IsEmpty() {
		return
	}
	fid, ok := a.heap.fieldIDs[field]
	if !ok {
		return
	}
	pts.ForEach(func(o uint32) {
		if loc, ok := a.heap.fldIdx[fieldKey(ObjID(o), fid)]; ok {
			fn(ObjID(o), loc)
		}
	})
}

// StaticLoc returns the location of the static field with signature
// "Class.field".
func (a *Analysis) StaticLoc(sig string) (NodeID, bool) {
	id, ok := a.heap.statIdx[sig]
	return id, ok
}

// Loc describes a location: the object and field name of an object field,
// or (static true) the signature of a static field in field.
func (a *Analysis) Loc(id NodeID) (obj ObjID, field string, static bool) {
	n := &a.heap.nodes[id]
	return n.obj, n.field, n.kind == nodeStatic
}

// StaticPointsTo returns the points-to set of static field "Class.field".
func (a *Analysis) StaticPointsTo(sig string) *Bits {
	if id, ok := a.heap.statIdx[sig]; ok {
		return &a.pts[id]
	}
	return &emptyBits
}

// Obj returns the descriptor of an abstract object.
func (a *Analysis) Obj(id ObjID) *ObjInfo { return a.heap.obj(id) }

// NumObjs returns the number of abstract objects.
func (a *Analysis) NumObjs() int { return a.heap.NumObjs() }

// CtxString renders a context for diagnostics.
func (a *Analysis) CtxString(ctx CtxID) string { return a.ctxs.String(ctx) }

// ObjString renders an abstract object as ⟨site@pos, ctx⟩.
func (a *Analysis) ObjString(id ObjID) string {
	o := a.heap.obj(id)
	return fmt.Sprintf("o%d(%s@%s)", id, o.Class().Name, o.Pos())
}

// OriginOfCtx maps an analysis context back to the origin whose code runs
// under it. For the KOrigin policy the mapping is direct; for other
// policies it returns false (callers must track origins during call-graph
// traversal instead).
func (a *Analysis) OriginOfCtx(ctx CtxID) (OriginID, bool) {
	if a.Cfg.Policy.Kind != KOrigin {
		return 0, false
	}
	chain, _ := a.originChain(ctx)
	if chain == EmptyCtx {
		return MainOrigin, true
	}
	for _, o := range a.Origins.Origins {
		if o.Ctx == chain {
			return o.ID, true
		}
	}
	return 0, false
}

// OriginAttrs renders the attribute pointers of an origin: each attribute
// variable with the allocation sites it may point to. This is the
// user-facing part of the origin abstraction (§3.1). The rendered object
// set is sorted so the string is byte-stable across runs — race witnesses
// embed it and are golden-tested.
func (a *Analysis) OriginAttrs(id OriginID) string {
	o := a.Origins.Get(id)
	if len(o.AttrVars) == 0 {
		return "()"
	}
	parts := make([]string, 0, len(o.AttrVars))
	for _, v := range o.AttrVars {
		pts := a.PointsTo(v, o.AttrCtx)
		objs := make([]string, 0, pts.Len())
		pts.ForEach(func(ob uint32) { objs = append(objs, a.ObjString(ObjID(ob))) })
		sort.Strings(objs)
		parts = append(parts, fmt.Sprintf("%s→{%s}", v.Name, strings.Join(objs, ",")))
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// ReachableFuncs returns the distinct functions reachable in the call
// graph, sorted by name.
func (a *Analysis) ReachableFuncs() []*ir.Func {
	seen := map[*ir.Func]bool{}
	var out []*ir.Func
	for _, fc := range a.CG.nodes {
		if !seen[fc.Fn] {
			seen[fc.Fn] = true
			out = append(out, fc.Fn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// OriginCGNodes returns, indexed by OriginID, the number of call-graph
// nodes (contexted functions) running under each origin's context — the
// per-origin measure of pointer-analysis and call-graph work. Contexts
// that cannot be attributed (non-KOrigin policies, unresolved chains)
// land on MainOrigin, so the counts always sum to the call-graph size.
func (a *Analysis) OriginCGNodes() []int64 {
	out := make([]int64, a.Origins.Len())
	if len(out) == 0 {
		return out
	}
	cache := map[CtxID]OriginID{}
	for _, fc := range a.CG.nodes {
		id, ok := cache[fc.Ctx]
		if !ok {
			id = MainOrigin
			if o, attributed := a.OriginOfCtx(fc.Ctx); attributed {
				id = o
			}
			cache[fc.Ctx] = id
		}
		out[id]++
	}
	return out
}

// MainNode returns the call-graph node of the program entry.
func (a *Analysis) MainNode() FnCtxID {
	id, _ := a.CG.Lookup(a.Prog.Main, EmptyCtx)
	return id
}

// ForEachFieldNode invokes fn for every object-field node in the PAG with
// its points-to set, in unspecified order.
func (a *Analysis) ForEachFieldNode(fn func(obj ObjID, field string, pts *Bits)) {
	for _, id := range a.heap.fldIdx {
		n := &a.heap.nodes[id]
		fn(n.obj, n.field, &a.pts[id])
	}
}

// ForEachStaticNode invokes fn for every static-field node in the PAG.
func (a *Analysis) ForEachStaticNode(fn func(sig string, pts *Bits)) {
	for sig, id := range a.heap.statIdx {
		fn(sig, &a.pts[id])
	}
}

// MayAlias reports whether two contexted variables may point to a common
// object.
func (a *Analysis) MayAlias(v1 *ir.Var, c1 CtxID, v2 *ir.Var, c2 CtxID) bool {
	return a.PointsTo(v1, c1).Intersects(a.PointsTo(v2, c2))
}
