package pta

import "o2/internal/ir"

// VarNode is one variable node of the PAG as the node table records it.
type VarNode struct {
	Var *ir.Var
	Ctx CtxID
	Pts *Bits
}

// VarNodes lists every variable node from the node table, independently
// of the per-context slots that index them.
func VarNodes(a *Analysis) []VarNode {
	var out []VarNode
	for id, n := range a.heap.nodes {
		if n.kind == nodeVar {
			out = append(out, VarNode{n.v, n.ctx, &a.pts[id]})
		}
	}
	return out
}
