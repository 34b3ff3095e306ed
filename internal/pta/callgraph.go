package pta

import (
	"fmt"
	"slices"

	"o2/internal/ir"
)

// FnCtxID identifies an interned ⟨function, context⟩ pair — a node of the
// context-sensitive call graph.
type FnCtxID uint32

// FnCtx is a contexted function.
type FnCtx struct {
	Fn  *ir.Func
	Ctx CtxID
}

type fnCtxKey struct {
	fn  *ir.Func
	ctx CtxID
}

// EdgeKind classifies call-graph edges.
type EdgeKind uint8

const (
	// EdgeCall is an ordinary (same-origin) call, rule ⑦ of Table 2.
	EdgeCall EdgeKind = iota
	// EdgeSpawn is an origin-entry invocation (thread start or event
	// dispatch), rule ⑨; Origin identifies the spawned origin.
	EdgeSpawn
	// EdgeInit is the constructor call of an origin allocation, rule ⑧.
	EdgeInit
	// EdgeJoin marks a join statement; Origin identifies the joined origin
	// and Callee is unset.
	EdgeJoin
)

// Edge is a resolved call-graph edge from one instruction of a contexted
// caller to a contexted callee (or to an origin for spawn/join edges).
type Edge struct {
	Kind   EdgeKind
	Caller FnCtxID
	// InstrIdx is the index of the call instruction within the caller's
	// body; SHB construction replays instructions in order and consumes
	// edges by index.
	InstrIdx int
	Callee   FnCtxID  // valid unless Kind == EdgeJoin
	Origin   OriginID // valid for EdgeSpawn and EdgeJoin
}

// CallGraph is the on-the-fly context-sensitive call graph built by the
// solver.
type CallGraph struct {
	nodes []FnCtx
	index map[fnCtxKey]FnCtxID
	// out maps a caller node to its outgoing edges. Once the solve ends
	// each list is ordered by InstrIdx (sortEdges), keeping discovery
	// order among the edges of one instruction.
	out [][]Edge
	// edgeSet dedups edges.
	edgeSet map[Edge]struct{}
	Edges   int
}

func newCallGraph() *CallGraph {
	return &CallGraph{index: map[fnCtxKey]FnCtxID{}, edgeSet: map[Edge]struct{}{}}
}

// node interns ⟨fn, ctx⟩ and returns its ID. Only the solver creates
// nodes: it reserves each new node's variable slots.
func (g *CallGraph) node(fn *ir.Func, ctx CtxID) FnCtxID {
	k := fnCtxKey{fn, ctx}
	if id, ok := g.index[k]; ok {
		return id
	}
	id := FnCtxID(len(g.nodes))
	g.nodes = append(g.nodes, FnCtx{fn, ctx})
	g.out = append(g.out, nil)
	g.index[k] = id
	return id
}

// Lookup returns the node for ⟨fn, ctx⟩ if it exists.
func (g *CallGraph) Lookup(fn *ir.Func, ctx CtxID) (FnCtxID, bool) {
	id, ok := g.index[fnCtxKey{fn, ctx}]
	return id, ok
}

// Get returns the contexted function for a node ID.
func (g *CallGraph) Get(id FnCtxID) FnCtx { return g.nodes[id] }

// NumNodes returns the number of reachable contexted functions.
func (g *CallGraph) NumNodes() int { return len(g.nodes) }

func (g *CallGraph) addEdge(e Edge) bool {
	if _, dup := g.edgeSet[e]; dup {
		return false
	}
	g.edgeSet[e] = struct{}{}
	g.out[e.Caller] = append(g.out[e.Caller], e)
	g.Edges++
	return true
}

// Out returns all outgoing edges of node (every instruction), ordered by
// instruction index once the solve has ended.
func (g *CallGraph) Out(node FnCtxID) []Edge { return g.out[node] }

// sortEdges orders every node's edges by instruction index. The sort is
// stable, so the edges of one instruction keep the order in which the
// solver found them; slices.SortStableFunc, unlike sort.SliceStable,
// does not allocate.
func (g *CallGraph) sortEdges() {
	for _, es := range g.out {
		slices.SortStableFunc(es, func(x, y Edge) int { return x.InstrIdx - y.InstrIdx })
	}
}

// EdgesAt returns the edges leaving the instruction at index idx of node,
// in discovery order. It is a subslice of the node's edge list, valid
// after the solve has ended; callers must not modify it.
func (g *CallGraph) EdgesAt(node FnCtxID, idx int) []Edge {
	es := g.out[node]
	lo, hi := 0, len(es)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if es[m].InstrIdx < idx {
			lo = m + 1
		} else {
			hi = m
		}
	}
	end := lo
	for end < len(es) && es[end].InstrIdx == idx {
		end++
	}
	return es[lo:end:end]
}

func (g *CallGraph) String() string {
	return fmt.Sprintf("callgraph{%d nodes, %d edges}", len(g.nodes), g.Edges)
}
