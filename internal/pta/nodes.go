package pta

import (
	"fmt"

	"o2/internal/ir"
)

// ObjID identifies an interned abstract heap object ⟨allocSite, heapCtx⟩.
// ObjID 0 is reserved (no object).
type ObjID uint32

// NodeID identifies a node in the pointer assignment graph (PAG): a
// contexted variable, an object field, or a static field.
type NodeID uint32

// ObjKind classifies abstract objects.
type ObjKind uint8

const (
	// ObjHeap is an ordinary heap allocation.
	ObjHeap ObjKind = iota
	// ObjFunc is a function object created by &f (C-style function
	// pointers — the paper's "indirect function targets").
	ObjFunc
	// ObjHandle is a pthread_create/event_register handle; it doubles as
	// the origin object of the spawned origin.
	ObjHandle
	// ObjChan is a channel created by "c = chan(cap)". Its element slot is
	// the synthetic field ChanElemField; Cap records the declared capacity
	// (0 = unbuffered rendezvous).
	ObjChan
)

// ChanElemField is the synthetic field name modeling a channel's element
// slot: send stores through it, recv loads from it.
const ChanElemField = "$elem"

// ObjInfo describes an abstract object: a heap allocation, a function
// object, or a thread/event handle.
type ObjInfo struct {
	Kind  ObjKind
	Site  int       // allocation-site ID (heap) or builtin-call pseudo-site
	Ctx   CtxID     // heap context
	Alloc *ir.Alloc // heap objects only
	Fn    *ir.Func  // ObjFunc: the function; ObjHandle: the entry function
	Cap   int       // ObjChan: declared capacity (0 = unbuffered)
	pos   ir.Pos
}

var (
	funcClass   = &ir.Class{Name: "$func"}
	handleClass = &ir.Class{Name: "$pthread"}
	chanClass   = &ir.Class{Name: "$chan"}
)

// Class returns the allocated class (pseudo-classes for function, handle
// and channel objects).
func (o *ObjInfo) Class() *ir.Class {
	switch o.Kind {
	case ObjFunc:
		return funcClass
	case ObjHandle:
		return handleClass
	case ObjChan:
		return chanClass
	}
	return o.Alloc.Class
}

// Pos returns the source position of the object's creation site.
func (o *ObjInfo) Pos() ir.Pos { return o.pos }

type objKey struct {
	site int
	ctx  CtxID
}

// fieldKey packs an object-field node's key, ⟨obj⟩.field with the field
// name interned, into one integer: uint64(obj)<<32 | fieldID.
func fieldKey(obj ObjID, fid int32) uint64 { return uint64(obj)<<32 | uint64(uint32(fid)) }

// heap interns abstract objects, field names and the PAG's field and
// static nodes. Variable nodes live in the Analysis's per-context slots.
type heap struct {
	objs       []ObjInfo // ObjID -> info; index 0 unused
	objIdx     map[objKey]ObjID
	funcIdx    map[*ir.Func]ObjID
	handleIdx  map[objKey]ObjID
	fieldIDs   map[string]int32  // field name -> field ID
	fieldNames []string          // field ID -> field name
	fldIdx     map[uint64]NodeID // fieldKey(obj, fid) -> node
	statIdx    map[string]NodeID
	nodes      []nodeInfo // NodeID -> info
}

type nodeKind uint8

const (
	nodeVar nodeKind = iota
	nodeField
	nodeStatic
)

type nodeInfo struct {
	kind  nodeKind
	v     *ir.Var // nodeVar
	ctx   CtxID   // nodeVar
	obj   ObjID   // nodeField
	field string  // nodeField / nodeStatic signature
}

func newHeap() *heap {
	return &heap{
		objs:      make([]ObjInfo, 1),
		objIdx:    map[objKey]ObjID{},
		funcIdx:   map[*ir.Func]ObjID{},
		handleIdx: map[objKey]ObjID{},
		fieldIDs:  map[string]int32{},
		fldIdx:    map[uint64]NodeID{},
		statIdx:   map[string]NodeID{},
	}
}

// fieldID interns a field name.
func (h *heap) fieldID(name string) int32 {
	if id, ok := h.fieldIDs[name]; ok {
		return id
	}
	id := int32(len(h.fieldNames))
	h.fieldIDs[name] = id
	h.fieldNames = append(h.fieldNames, name)
	return id
}

// internObj returns the ObjID for ⟨site, ctx⟩, creating it if new. The
// second result reports whether the object is new.
func (h *heap) internObj(a *ir.Alloc, ctx CtxID) (ObjID, bool) {
	k := objKey{a.Site, ctx}
	if id, ok := h.objIdx[k]; ok {
		return id, false
	}
	id := ObjID(len(h.objs))
	h.objs = append(h.objs, ObjInfo{Kind: ObjHeap, Site: a.Site, Ctx: ctx, Alloc: a, pos: a.Pos()})
	h.objIdx[k] = id
	return id, true
}

// internFuncObj returns the (context-free) function object for fn.
func (h *heap) internFuncObj(fn *ir.Func, pos ir.Pos) ObjID {
	if id, ok := h.funcIdx[fn]; ok {
		return id
	}
	id := ObjID(len(h.objs))
	h.objs = append(h.objs, ObjInfo{Kind: ObjFunc, Site: -1, Fn: fn, pos: pos})
	h.funcIdx[fn] = id
	return id
}

// internHandleObj returns the handle/origin object for a
// pthread_create/event_register pseudo-site under ctx.
func (h *heap) internHandleObj(site int, ctx CtxID, entry *ir.Func, pos ir.Pos) (ObjID, bool) {
	k := objKey{site, ctx}
	if id, ok := h.handleIdx[k]; ok {
		return id, false
	}
	id := ObjID(len(h.objs))
	h.objs = append(h.objs, ObjInfo{Kind: ObjHandle, Site: site, Ctx: ctx, Fn: entry, pos: pos})
	h.handleIdx[k] = id
	return id, true
}

// internChanObj returns the channel object for a ChanMake site under ctx.
// ChanMake shares the allocation-site namespace with Alloc, so objIdx keys
// never collide with heap objects.
func (h *heap) internChanObj(in *ir.ChanMake, ctx CtxID) (ObjID, bool) {
	k := objKey{in.Site, ctx}
	if id, ok := h.objIdx[k]; ok {
		return id, false
	}
	id := ObjID(len(h.objs))
	h.objs = append(h.objs, ObjInfo{Kind: ObjChan, Site: in.Site, Ctx: ctx, Cap: in.Cap, pos: in.Pos()})
	h.objIdx[k] = id
	return id, true
}

func (h *heap) obj(id ObjID) *ObjInfo { return &h.objs[id] }

// NumObjs returns the number of abstract objects created.
func (h *heap) NumObjs() int { return len(h.objs) - 1 }

func (h *heap) fieldNode(obj ObjID, fid int32) NodeID {
	k := fieldKey(obj, fid)
	if id, ok := h.fldIdx[k]; ok {
		return id
	}
	id := h.newNode(nodeInfo{kind: nodeField, obj: obj, field: h.fieldNames[fid]})
	h.fldIdx[k] = id
	return id
}

func (h *heap) staticNode(sig string) NodeID {
	if id, ok := h.statIdx[sig]; ok {
		return id
	}
	id := h.newNode(nodeInfo{kind: nodeStatic, field: sig})
	h.statIdx[sig] = id
	return id
}

func (h *heap) newNode(ni nodeInfo) NodeID {
	id := NodeID(len(h.nodes))
	h.nodes = append(h.nodes, ni)
	return id
}

// NumNodes returns the number of PAG nodes created.
func (h *heap) NumNodes() int { return len(h.nodes) }

func (h *heap) nodeString(id NodeID, ctxs *ctxTable) string {
	n := h.nodes[id]
	switch n.kind {
	case nodeVar:
		return fmt.Sprintf("⟨%s,%s⟩", n.v, ctxs.String(n.ctx))
	case nodeField:
		o := h.obj(n.obj)
		return fmt.Sprintf("⟨o%d@%d,%s⟩.%s", n.obj, o.Site, ctxs.String(o.Ctx), n.field)
	default:
		return n.field
	}
}
