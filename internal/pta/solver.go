// Package pta implements the paper's pointer-analysis framework: an
// Andersen-style inclusion analysis with an on-the-fly call graph and
// pluggable context policies — context-insensitive (0-ctx), k-CFA, k-obj,
// and the paper's origin-sensitive analysis (OPA, §3.2, Table 2).
//
// Origins (threads and event handlers) are discovered during constraint
// generation for every policy, because the downstream SHB graph and race
// detector need them regardless of the pointer-analysis context; only the
// KOrigin policy additionally uses them as the analysis context.
package pta

import (
	"context"
	"errors"
	"fmt"
	"time"

	"o2/internal/ir"
	"o2/internal/obs"
)

// ErrBudget is returned when the analysis exceeds its configured step or
// time budget (the analogue of the paper's ">4h" timeouts). A context
// deadline expiring mid-analysis reports the same error, so one mechanism
// serves both explicit budgets and service-level job deadlines.
var ErrBudget = errors.New("pta: analysis budget exceeded")

// ErrCanceled is returned when the context passed to SolveCtx (or any
// downstream pipeline stage) is canceled mid-analysis. It wraps
// context.Canceled, so errors.Is(err, context.Canceled) holds.
var ErrCanceled = fmt.Errorf("pta: analysis canceled: %w", context.Canceled)

// CtxErr maps a non-nil context error onto the pipeline's sentinel
// errors: an expired deadline is a budget exhaustion (ErrBudget),
// everything else is a cancellation (ErrCanceled). Shared by every stage
// that honors a context (pta, osa, shb, race).
func CtxErr(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return ErrBudget
	}
	return ErrCanceled
}

// Config configures an analysis run.
type Config struct {
	Policy  Policy
	Entries ir.EntryConfig
	// ReplicateEvents marks event-handler origins as replicated (two or
	// more concurrent instances), matching the paper's treatment of Linux
	// system calls and server event handlers. Android mode instead
	// serializes events with a global lock (handled in the race engine).
	ReplicateEvents bool
	// StepBudget bounds the number of propagation steps (0 = unlimited);
	// exceeding it aborts with ErrBudget.
	StepBudget int64
	// TimeBudget bounds wall-clock time (0 = unlimited).
	TimeBudget time.Duration
	// Obs receives the solver's span and counters (nil = disabled).
	Obs *obs.Registry
}

const (
	wrapperTag = uint64(1) << 63
	twinTag    = uint64(1) << 62
)

// loadC and storeC carry the interned field ID (see heap.fieldID), so
// resolving a constraint per new object hashes one integer.
type loadC struct {
	dst   NodeID
	field int32
}

type storeC struct {
	src   NodeID
	field int32
}

type callC struct {
	caller FnCtxID
	instr  *ir.Call
	idx    int // instruction index in caller body
}

// nodeCons are the constraints registered on one base node, resolved
// against each object newly added to its points-to set.
type nodeCons struct {
	loads  []loadC
	stores []storeC
	calls  []callC
}

type edgeKey struct{ from, to NodeID }

// Analysis holds all state of one pointer-analysis run and is the query
// interface used by OSA, SHB construction and the race detector.
type Analysis struct {
	Prog    *ir.Program
	Cfg     Config
	CG      *CallGraph
	Origins *OriginTable

	ctxs *ctxTable
	heap *heap

	pts   []Bits
	delta []Bits
	succ  [][]NodeID
	edges map[edgeKey]struct{}

	// cons[n] is the index of node n's constraints in consLists plus one
	// (0: none registered).
	cons      []int32
	consLists []nodeCons

	// varSlots holds every contexted variable's node: variable v of
	// call-graph node f is varSlots[varBase[f]+v.ID], noNode until first
	// referenced. markReachable reserves len(Fn.Locals) slots per node.
	varSlots []NodeID
	varBase  []int32 // per FnCtxID
	fnWL     []FnCtxID
	wl       []NodeID
	inWL     []bool

	// hasOriginAlloc marks functions that directly contain an origin
	// allocation; under the KOrigin policy such functions are analyzed with
	// one extra call-site context element, implementing the paper's
	// "wrapper functions" k=1 call-site extension of origin entry points.
	hasOriginAlloc map[*ir.Func]bool

	steps       int64
	iterations  int64 // worklist pops (constraint generations + node processings)
	constraints int64 // load/store/call/edge constraints registered
	numEdges    int
	ctx         context.Context
	latch       *Latch // trips when ctx ends; nil when ctx is not cancellable
	err         error

	replayScratch Bits // replayObjs' reusable points-to snapshot
}

// New creates an analysis for the (finalized) program.
func New(prog *ir.Program, cfg Config) *Analysis {
	a := &Analysis{
		Prog:           prog,
		Cfg:            cfg,
		CG:             newCallGraph(),
		Origins:        newOriginTable(),
		ctxs:           newCtxTable(),
		heap:           newHeap(),
		edges:          map[edgeKey]struct{}{},
		hasOriginAlloc: map[*ir.Func]bool{},
	}
	for _, f := range prog.Funcs {
		for _, in := range f.Body {
			if al, ok := in.(*ir.Alloc); ok && a.isOriginClass(al.Class) {
				a.hasOriginAlloc[f] = true
				break
			}
		}
	}
	return a
}

// Solve runs the analysis to fixpoint. It may return ErrBudget.
func (a *Analysis) Solve() error { return a.SolveCtx(context.Background()) }

// SolveCtx runs the analysis to fixpoint under a context. Cancellation is
// observed in the step loop (every few thousand propagation steps), so
// SolveCtx returns promptly after the context ends: ErrCanceled on
// cancellation, ErrBudget when the context deadline (or Config.TimeBudget,
// which derives one) expires.
func (a *Analysis) SolveCtx(ctx context.Context) error {
	sp := a.Cfg.Obs.StartSpan("pta")
	defer func() {
		a.recordObs()
		sp.End()
	}()
	if a.Cfg.TimeBudget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, a.Cfg.TimeBudget)
		defer cancel()
	}
	a.ctx = ctx
	latch, stopWatch := WatchCancel(ctx)
	a.latch = latch
	defer stopWatch()
	if err := ctx.Err(); err != nil {
		a.err = CtxErr(err)
		return a.err
	}
	if a.Prog.Main == nil {
		return fmt.Errorf("pta: program has no main")
	}
	// Order each node's call-graph edges by instruction once the graph
	// stops growing, so EdgesAt can return a subslice.
	defer a.CG.sortEdges()
	a.markReachable(a.Prog.Main, EmptyCtx)
	for a.err == nil {
		if n := len(a.fnWL); n > 0 {
			id := a.fnWL[n-1]
			a.fnWL = a.fnWL[:n-1]
			a.iterations++
			a.genConstraints(id)
			continue
		}
		if n := len(a.wl); n > 0 {
			id := a.wl[n-1]
			a.wl = a.wl[:n-1]
			a.inWL[id] = false
			a.iterations++
			a.processNode(id)
			continue
		}
		break
	}
	return a.err
}

// recordObs publishes the solved sizes into the registry (no-op when
// observability is disabled). Called even on budget aborts, so partial
// runs still report how far they got.
func (a *Analysis) recordObs() {
	reg := a.Cfg.Obs
	if reg == nil {
		return
	}
	st := a.Stats()
	reg.Counter("pta.steps").Set(st.Steps)
	reg.Counter("pta.iterations").Set(st.Iterations)
	reg.Counter("pta.constraints").Set(st.Constraints)
	reg.SetGauge("pta.pointers", int64(st.Pointers))
	reg.SetGauge("pta.objects", int64(st.Objects))
	reg.SetGauge("pta.pag_edges", int64(st.Edges))
	reg.SetGauge("pta.contexts", int64(st.Contexts))
	reg.SetGauge("pta.cg_nodes", int64(st.CGNodes))
	reg.SetGauge("pta.cg_edges", int64(st.CGEdges))
	reg.SetGauge("pta.origins", int64(st.Origins))
	// Distribution of non-empty points-to set sizes: the quantity that
	// governs both precision (aliasing resolution) and propagation cost.
	h := reg.Histogram("pta.points_to_size", obs.SizeBuckets)
	for i := range a.pts {
		if n := a.pts[i].Len(); n > 0 {
			h.Observe(float64(n))
		}
	}
}

func (a *Analysis) budget() bool {
	a.steps++
	if a.Cfg.StepBudget > 0 && a.steps > a.Cfg.StepBudget {
		a.err = ErrBudget
		return false
	}
	// Cancellation is one atomic load (a nil compare when the context is
	// not cancellable) instead of the former every-4096-steps ctx.Err()
	// poll, so it is checked on every step: latency to abort is one step.
	if a.latch.Tripped() {
		a.err = CtxErr(a.ctx.Err())
		return false
	}
	return true
}

func (a *Analysis) isOriginClass(c *ir.Class) bool { return c.IsThread || c.IsEvent }

// ---- node/pts management ----

func (a *Analysis) ensureNode(id NodeID) {
	for int(id) >= len(a.pts) {
		a.pts = append(a.pts, Bits{})
		a.delta = append(a.delta, Bits{})
		a.succ = append(a.succ, nil)
		a.inWL = append(a.inWL, false)
		a.cons = append(a.cons, 0)
	}
}

// consOf returns base node n's constraint lists, creating them on first
// use. The pointer is valid until the next consOf call.
func (a *Analysis) consOf(n NodeID) *nodeCons {
	if a.cons[n] == 0 {
		a.consLists = append(a.consLists, nodeCons{})
		a.cons[n] = int32(len(a.consLists))
	}
	return &a.consLists[a.cons[n]-1]
}

// noNode marks a variable slot whose node does not exist yet.
const noNode = ^NodeID(0)

// varNode returns the node of variable v of call-graph node f, creating
// it on the first reference. v must be a variable of f's function: its ID
// indexes f's slot block.
func (a *Analysis) varNode(f FnCtxID, v *ir.Var) NodeID {
	slot := &a.varSlots[int(a.varBase[f])+v.ID]
	if *slot == noNode {
		fc := a.CG.Get(f)
		if v.Func != fc.Fn {
			panic(fmt.Sprintf("pta: variable %s used in %s", v, fc.Fn))
		}
		*slot = a.heap.newNode(nodeInfo{kind: nodeVar, v: v, ctx: fc.Ctx})
		a.ensureNode(*slot)
	}
	return *slot
}

func (a *Analysis) fieldNode(obj ObjID, fid int32) NodeID {
	id := a.heap.fieldNode(obj, fid)
	a.ensureNode(id)
	return id
}

func (a *Analysis) staticNode(c *ir.Class, field string) NodeID {
	id := a.heap.staticNode(c.Name + "." + field)
	a.ensureNode(id)
	return id
}

func (a *Analysis) enqueue(n NodeID) {
	if !a.inWL[n] {
		a.inWL[n] = true
		a.wl = append(a.wl, n)
	}
}

func (a *Analysis) addObj(n NodeID, o ObjID) {
	if a.pts[n].Add(uint32(o)) {
		a.delta[n].Add(uint32(o))
		a.enqueue(n)
	}
}

func (a *Analysis) addSet(n NodeID, s *Bits) {
	changed := false
	s.ForEach(func(o uint32) {
		a.steps++ // propagation work: one unit per candidate object
		if a.pts[n].Add(o) {
			a.delta[n].Add(o)
			changed = true
		}
	})
	if changed {
		a.enqueue(n)
	}
}

func (a *Analysis) addEdge(from, to NodeID) {
	if from == to {
		return
	}
	k := edgeKey{from, to}
	if _, dup := a.edges[k]; dup {
		return
	}
	a.edges[k] = struct{}{}
	a.succ[from] = append(a.succ[from], to)
	a.numEdges++
	a.constraints++
	if !a.pts[from].IsEmpty() {
		a.addSet(to, &a.pts[from])
	}
}

func (a *Analysis) processNode(n NodeID) {
	d := a.delta[n]
	a.delta[n] = Bits{}
	if d.IsEmpty() {
		return
	}
	for _, m := range a.succ[n] {
		if !a.budget() {
			return
		}
		a.addSet(m, &d)
	}
	if ci := a.cons[n]; ci != 0 {
		c := &a.consLists[ci-1]
		for _, lc := range c.loads {
			d.ForEach(func(o uint32) {
				a.addEdge(a.fieldNode(ObjID(o), lc.field), lc.dst)
			})
		}
		for _, sc := range c.stores {
			d.ForEach(func(o uint32) {
				a.addEdge(sc.src, a.fieldNode(ObjID(o), sc.field))
			})
		}
		for _, cc := range c.calls {
			d.ForEach(func(o uint32) {
				if !a.budget() {
					return
				}
				a.resolveCall(cc, ObjID(o))
			})
		}
	}
	// Recycle d's word storage into the (now empty, unless a callback
	// above re-populated it) delta slot, so the next delta for this node
	// grows into existing capacity instead of reallocating from nil —
	// deltas churn once per worklist pop, the solver's hottest allocation
	// site.
	if len(a.delta[n].w) == 0 {
		for i := range d.w {
			d.w[i] = 0
		}
		a.delta[n] = d
	}
}

// ---- context policies ----

// originChain strips a trailing wrapper element, returning the pure origin
// context and the wrapper call site (-1 if none).
func (a *Analysis) originChain(ctx CtxID) (CtxID, int) {
	elems := a.ctxs.Elems(ctx)
	if n := len(elems); n > 0 && elems[n-1]&wrapperTag != 0 {
		return a.ctxs.Intern(elems[:n-1]), int(elems[n-1] &^ wrapperTag)
	}
	return ctx, -1
}

// calleeCtx computes the callee context for an ordinary (non-origin) call,
// rule ⑦ of Table 2 for KOrigin and the classic rules otherwise.
func (a *Analysis) calleeCtx(callerCtx CtxID, site int, recv ObjID, callee *ir.Func) CtxID {
	switch a.Cfg.Policy.Kind {
	case Insensitive:
		return EmptyCtx
	case KCFA:
		return a.ctxs.Append(callerCtx, uint64(site+1), a.Cfg.Policy.K)
	case KObj:
		if recv == 0 { // static call: keep caller context
			return callerCtx
		}
		o := a.heap.obj(recv)
		return a.ctxs.Append(o.Ctx, uint64(o.Site+1), a.Cfg.Policy.K)
	case KOrigin:
		// Functions within the same origin share the same context. Functions
		// directly containing an origin allocation get a 1-call-site
		// extension so origins created through wrappers stay distinct.
		chain, _ := a.originChain(callerCtx)
		if callee != nil && a.hasOriginAlloc[callee] {
			elems := append(append([]uint64{}, a.ctxs.Elems(chain)...), wrapperTag|uint64(site))
			return a.ctxs.Intern(elems)
		}
		if chain != callerCtx && callee != nil && !a.hasOriginAlloc[callee] {
			// Leaving a wrapper: drop the wrapper marker.
			return chain
		}
		return callerCtx
	}
	return EmptyCtx
}

// heapCtx computes the heap context for a non-origin allocation.
func (a *Analysis) heapCtx(ctx CtxID) CtxID {
	switch a.Cfg.Policy.Kind {
	case Insensitive:
		return EmptyCtx
	case KCFA, KObj:
		return a.ctxs.Truncate(ctx, a.Cfg.Policy.K)
	case KOrigin:
		chain, _ := a.originChain(ctx)
		return chain
	}
	return EmptyCtx
}

// originCtx computes the context of a new origin allocated at site within
// allocCtx (rule ⑧). For KOrigin this creates the new origin context; other
// policies use their regular heap context, so origin identity still follows
// the abstract object.
func (a *Analysis) originCtx(allocCtx CtxID, site int) CtxID {
	if a.Cfg.Policy.Kind != KOrigin {
		return a.heapCtx(allocCtx)
	}
	chain, wrapperSite := a.originChain(allocCtx)
	elems := append(append([]uint64{}, a.ctxs.Elems(chain)...), originElem(site, wrapperSite))
	k := a.Cfg.Policy.K
	if k > 0 && len(elems) > k {
		elems = elems[len(elems)-k:]
	}
	return a.ctxs.Intern(elems)
}

// ---- constraint generation ----

func (a *Analysis) markReachable(fn *ir.Func, ctx CtxID) FnCtxID {
	id := a.CG.node(fn, ctx)
	if int(id) == len(a.varBase) {
		// A new call-graph node: reserve its variable slots and queue its
		// body for constraint generation.
		a.varBase = append(a.varBase, int32(len(a.varSlots)))
		for range fn.Locals {
			a.varSlots = append(a.varSlots, noNode)
		}
		a.fnWL = append(a.fnWL, id)
	}
	return id
}

func (a *Analysis) genConstraints(id FnCtxID) {
	fc := a.CG.Get(id)
	fn, ctx := fc.Fn, fc.Ctx
	for idx, in := range fn.Body {
		if !a.budget() {
			return
		}
		switch in := in.(type) {
		case *ir.Alloc:
			a.genAlloc(id, fn, ctx, in, idx)
		case *ir.Copy:
			a.addEdge(a.varNode(id, in.Src), a.varNode(id, in.Dst))
		case *ir.LoadField:
			a.addLoad(a.varNode(id, in.Obj), a.varNode(id, in.Dst), in.Field)
		case *ir.StoreField:
			a.addStore(a.varNode(id, in.Obj), a.varNode(id, in.Src), in.Field)
		case *ir.LoadIndex:
			a.addLoad(a.varNode(id, in.Arr), a.varNode(id, in.Dst), ir.ArrayField)
		case *ir.StoreIndex:
			a.addStore(a.varNode(id, in.Arr), a.varNode(id, in.Src), ir.ArrayField)
		case *ir.LoadStatic:
			a.addEdge(a.staticNode(in.Class, in.Field), a.varNode(id, in.Dst))
		case *ir.StoreStatic:
			a.addEdge(a.varNode(id, in.Src), a.staticNode(in.Class, in.Field))
		case *ir.FuncAddr:
			a.addObj(a.varNode(id, in.Dst), a.heap.internFuncObj(in.Target, in.Pos()))
		case *ir.ChanMake:
			obj, _ := a.heap.internChanObj(in, a.heapCtx(ctx))
			a.addObj(a.varNode(id, in.Dst), obj)
		case *ir.ChanSend:
			// Value flow through the channel: send stores into the channel
			// object's synthetic "$elem" slot, recv loads from it, so a
			// pointer sent over a channel reaches every receiver that may
			// share the channel (Fava/Steffen's communication semantics,
			// flow-insensitively).
			a.addStore(a.varNode(id, in.Ch), a.varNode(id, in.Val), ChanElemField)
		case *ir.ChanRecv:
			if in.Dst != nil {
				a.addLoad(a.varNode(id, in.Ch), a.varNode(id, in.Dst), ChanElemField)
			}
		case *ir.Call:
			if in.Static != nil && in.Recv == nil {
				calleeCtx := a.calleeCtx(ctx, in.Site, 0, in.Static)
				a.bindCall(id, in, idx, in.Static, calleeCtx, 0, EdgeCall)
				continue
			}
			// The points-to set of the dispatch variable drives binding:
			// the receiver for virtual calls and super constructor
			// chaining, the function pointer for indirect calls, the
			// function or handle argument for pthread-style builtins.
			var driver *ir.Var
			switch {
			case in.Builtin == "pthread_create" || in.Builtin == "event_register" ||
				in.Builtin == "pthread_join":
				if len(in.Args) == 0 {
					continue
				}
				driver = in.Args[0]
			case in.Indirect != nil:
				driver = in.Indirect
			default:
				driver = in.Recv
			}
			recv := a.varNode(id, driver)
			cc := callC{caller: id, instr: in, idx: idx}
			c := a.consOf(recv)
			c.calls = append(c.calls, cc)
			a.constraints++
			a.replayObjs(recv, func(o ObjID) { a.resolveCall(cc, o) })
		}
	}
}

// addLoad registers dst = base.field: each object o that base points to,
// now or later, gets the PAG edge ⟨o⟩.field → dst.
func (a *Analysis) addLoad(base, dst NodeID, field string) {
	fid := a.heap.fieldID(field)
	c := a.consOf(base)
	c.loads = append(c.loads, loadC{dst, fid})
	a.constraints++
	a.replayObjs(base, func(o ObjID) { a.addEdge(a.fieldNode(o, fid), dst) })
}

// addStore registers base.field = src: each object o that base points
// to, now or later, gets the PAG edge src → ⟨o⟩.field.
func (a *Analysis) addStore(base, src NodeID, field string) {
	fid := a.heap.fieldID(field)
	c := a.consOf(base)
	c.stores = append(c.stores, storeC{src, fid})
	a.constraints++
	a.replayObjs(base, func(o ObjID) { a.addEdge(src, a.fieldNode(o, fid)) })
}

// replayObjs invokes fn for objects already in pts(base) when a constraint
// is registered late (the node may have been populated by earlier callers).
// The snapshot lands in a reused scratch buffer: fn may grow a.pts
// (ensureNode) or mutate pts(base) itself, but never re-enters replayObjs
// (its callbacks only enqueue work), so one scratch per Analysis is safe.
func (a *Analysis) replayObjs(base NodeID, fn func(ObjID)) {
	if a.pts[base].IsEmpty() {
		return
	}
	a.replayScratch.w = append(a.replayScratch.w[:0], a.pts[base].w...)
	a.replayScratch.ForEach(func(o uint32) { fn(ObjID(o)) })
}

func (a *Analysis) genAlloc(caller FnCtxID, fn *ir.Func, ctx CtxID, al *ir.Alloc, idx int) {
	isOrigin := a.isOriginClass(al.Class)
	replicate := al.InLoop || (al.Class.IsEvent && !al.Class.IsThread && a.Cfg.ReplicateEvents)

	// At most two heap contexts (origin + twin): a fixed-size buffer keeps
	// the slice on the stack — genAlloc runs once per reachable allocation
	// per context and was a top allocation site.
	var hctxBuf [2]CtxID
	hctxs := hctxBuf[:0]
	if isOrigin {
		h := a.originCtx(ctx, al.Site)
		hctxs = append(hctxs, h)
		if replicate && a.Cfg.Policy.Kind == KOrigin {
			// §3.2: an origin allocated in a loop (or a concurrently
			// re-entrant event) becomes two origins with identical
			// attributes but different IDs. Each twin gets its own context,
			// so instance-local allocations stay separate while races
			// between the concurrent instances are found as ordinary
			// cross-origin pairs.
			hctxs = append(hctxs, a.twinCtx(h))
		}
	} else {
		hctxs = append(hctxs, a.heapCtx(ctx))
	}

	for _, hctx := range hctxs {
		obj, isNew := a.heap.internObj(al, hctx)
		a.addObj(a.varNode(caller, al.Dst), obj)

		if isOrigin && isNew {
			kind := KindThread
			if !al.Class.IsThread {
				kind = KindEvent
			}
			a.Origins.add(&Origin{
				Kind:     kind,
				Obj:      obj,
				Ctx:      hctx,
				AttrVars: al.Args,
				AttrCtx:  ctx,
				// Under the origin policy twins model concurrent instances
				// explicitly; other policies fall back to the replication
				// flag, which the race engine interprets as self-parallel.
				Replicated: replicate && a.Cfg.Policy.Kind != KOrigin,
				Site:       al.Site,
				Pos:        al.Pos(),
			})
		}

		// Constructor call (rule ⑧ for origin allocations: the constructor
		// is analyzed in the new origin's context to avoid false aliasing
		// across sibling origins, cf. Figure 3).
		if init := al.Class.Lookup("init"); init != nil {
			var initCtx CtxID
			if isOrigin && a.Cfg.Policy.Kind == KOrigin {
				initCtx = hctx
			} else {
				initCtx = a.calleeCtx(ctx, al.Site, obj, init)
				if a.Cfg.Policy.Kind == KObj {
					initCtx = a.ctxs.Append(hctx, uint64(al.Site+1), a.Cfg.Policy.K)
				}
			}
			callee := a.markReachable(init, initCtx)
			a.addObj(a.varNode(callee, init.Params[0]), obj)
			for i, arg := range al.Args {
				if i+1 < len(init.Params) {
					a.addEdge(a.varNode(caller, arg), a.varNode(callee, init.Params[i+1]))
				}
			}
			kind := EdgeCall
			if isOrigin {
				kind = EdgeInit
			}
			a.CG.addEdge(Edge{Kind: kind, Caller: caller, InstrIdx: idx, Callee: callee})
		}
	}
}

// twinCtx derives the sibling origin context of an origin allocated in a
// loop: identical chain, with the twin bit set on the last element.
func (a *Analysis) twinCtx(ctx CtxID) CtxID {
	elems := append([]uint64{}, a.ctxs.Elems(ctx)...)
	if len(elems) > 0 {
		elems[len(elems)-1] |= twinTag
	}
	return a.ctxs.Intern(elems)
}

func (a *Analysis) resolveCall(cc callC, recv ObjID) {
	in := cc.instr
	callerCtx := a.CG.Get(cc.caller).Ctx
	info := a.heap.obj(recv)
	ent := a.Cfg.Entries

	switch {
	case in.Builtin == "pthread_create":
		if info.Kind == ObjFunc {
			a.spawnPthread(cc, info.Fn, KindThread, callerCtx)
		}
		return
	case in.Builtin == "event_register":
		if info.Kind == ObjFunc {
			a.spawnPthread(cc, info.Fn, KindEvent, callerCtx)
		}
		return
	case in.Builtin == "pthread_join":
		if oid, ok := a.Origins.ByObj(recv); ok {
			a.CG.addEdge(Edge{Kind: EdgeJoin, Caller: cc.caller, InstrIdx: cc.idx, Origin: oid})
		}
		return
	case in.Indirect != nil:
		// Indirect call through a function pointer (the paper's C-side
		// "indirect function targets"): dispatch on the function object.
		if info.Kind != ObjFunc {
			return
		}
		target := info.Fn
		calleeCtx := a.calleeCtx(callerCtx, in.Site, 0, target)
		a.bindCall(cc.caller, in, cc.idx, target, calleeCtx, 0, EdgeCall)
		return
	}

	if info.Kind != ObjHeap {
		return
	}
	cls := info.Class()

	if ent.IsJoin(in.Method) {
		if oid, ok := a.Origins.ByObj(recv); ok {
			a.CG.addEdge(Edge{Kind: EdgeJoin, Caller: cc.caller, InstrIdx: cc.idx, Origin: oid})
		}
		return
	}

	var target *ir.Func
	if in.Static != nil {
		// Statically-resolved call with a receiver: super constructor
		// chaining. The target is fixed; only the receiver binding and the
		// context depend on the object.
		target = in.Static
	} else {
		method := in.Method
		if ent.IsStart(method) {
			// x.start() transfers control to the thread entry (run) of the
			// receiver's class, rule ⑨.
			for _, e := range ent.ThreadEntries {
				if cls.Lookup(e) != nil {
					method = e
					break
				}
			}
		}
		target = cls.Lookup(method)
		if target == nil {
			return
		}
	}

	if oid, isOriginObj := a.Origins.ByObj(recv); isOriginObj && (ent.IsEntry(target.Simple()) || target.OriginEntry) {
		a.spawn(cc, recv, oid, target, callerCtx)
		return
	}

	calleeCtx := a.calleeCtx(callerCtx, in.Site, recv, target)
	a.bindCall(cc.caller, in, cc.idx, target, calleeCtx, recv, EdgeCall)
}

// spawn handles an origin-entry invocation (rule ⑨ of Table 2): thread
// start or event dispatch. The entry runs in the origin's context; actual
// parameters keep the caller's context while formals get the origin's.
func (a *Analysis) spawn(cc callC, recv ObjID, oid OriginID, entry *ir.Func, callerCtx CtxID) {
	org := a.Origins.Get(oid)
	var calleeCtx CtxID
	switch a.Cfg.Policy.Kind {
	case KOrigin:
		calleeCtx = org.Ctx
	default:
		calleeCtx = a.calleeCtx(callerCtx, cc.instr.Site, recv, entry)
	}
	if org.Entry == nil {
		org.Entry = entry
		if a.Cfg.Policy.Kind != KOrigin {
			org.Ctx = calleeCtx
		}
		// Entry-point parameters contribute origin attributes (§3.1).
		if len(cc.instr.Args) > 0 {
			org.AttrVars = append(org.AttrVars, cc.instr.Args...)
		}
	}
	callee := a.markReachable(entry, calleeCtx)
	a.addObj(a.varNode(callee, entry.Params[0]), recv)
	for i, arg := range cc.instr.Args {
		if i+1 < len(entry.Params) {
			a.addEdge(a.varNode(cc.caller, arg), a.varNode(callee, entry.Params[i+1]))
		}
	}
	if cc.instr.Dst != nil && entry.Ret != nil {
		a.addEdge(a.varNode(callee, entry.Ret), a.varNode(cc.caller, cc.instr.Dst))
	}
	a.CG.addEdge(Edge{Kind: EdgeSpawn, Caller: cc.caller, InstrIdx: cc.idx, Callee: callee, Origin: oid})
}

// spawnPthread creates (or finds) the origin spawned by a
// pthread_create/event_register call resolving to entry, and wires the
// spawn edge, the attribute binding and the handle value. Pseudo-sites for
// handles live above the allocation-site namespace. Calls inside loops get
// twin origins under OPA, mirroring origin allocations (§3.2).
func (a *Analysis) spawnPthread(cc callC, entry *ir.Func, kind OriginKind, callerCtx CtxID) {
	in := cc.instr
	pseudoSite := a.Prog.NumAllocSites + in.Site
	replicate := in.InLoop || (kind == KindEvent && a.Cfg.ReplicateEvents)

	var hctxBuf [2]CtxID
	hctxs := hctxBuf[:0]
	if a.Cfg.Policy.Kind == KOrigin {
		h := a.originCtx(callerCtx, pseudoSite)
		hctxs = append(hctxs, h)
		if replicate {
			hctxs = append(hctxs, a.twinCtx(h))
		}
	} else {
		hctxs = append(hctxs, a.heapCtx(callerCtx))
	}

	for _, hctx := range hctxs {
		handle, isNew := a.heap.internHandleObj(pseudoSite, hctx, entry, in.Pos())
		var attrs []*ir.Var
		if len(in.Args) > 1 {
			attrs = in.Args[1:]
		}
		var calleeCtx CtxID
		if a.Cfg.Policy.Kind == KOrigin {
			calleeCtx = hctx
		} else {
			calleeCtx = a.calleeCtx(callerCtx, in.Site, 0, entry)
		}
		if isNew {
			a.Origins.add(&Origin{
				Kind:       kind,
				Obj:        handle,
				Ctx:        calleeCtx,
				Entry:      entry,
				AttrVars:   attrs,
				AttrCtx:    callerCtx,
				Replicated: replicate && a.Cfg.Policy.Kind != KOrigin,
				Site:       pseudoSite,
				Pos:        in.Pos(),
			})
		}
		oid, _ := a.Origins.ByObj(handle)
		callee := a.markReachable(entry, calleeCtx)
		// Bind the start argument to the entry's first parameter: the
		// origin attribute.
		if len(in.Args) > 1 && len(entry.Params) > 0 {
			a.addEdge(a.varNode(cc.caller, in.Args[1]), a.varNode(callee, entry.Params[0]))
		}
		if in.Dst != nil {
			a.addObj(a.varNode(cc.caller, in.Dst), handle)
		}
		a.CG.addEdge(Edge{Kind: EdgeSpawn, Caller: cc.caller, InstrIdx: cc.idx, Callee: callee, Origin: oid})
	}
}

func (a *Analysis) bindCall(caller FnCtxID, in *ir.Call, idx int, target *ir.Func, calleeCtx CtxID, recv ObjID, kind EdgeKind) {
	callee := a.markReachable(target, calleeCtx)
	params := target.Params
	args := in.Args
	if recv != 0 && len(params) > 0 {
		a.addObj(a.varNode(callee, params[0]), recv)
		params = params[1:]
	} else if in.Recv == nil && target.Class != nil && len(params) > 0 {
		params = params[1:] // static call to a method: no receiver bound
	}
	for i, arg := range args {
		if i < len(params) {
			a.addEdge(a.varNode(caller, arg), a.varNode(callee, params[i]))
		}
	}
	if in.Dst != nil && target.Ret != nil {
		a.addEdge(a.varNode(callee, target.Ret), a.varNode(caller, in.Dst))
	}
	a.CG.addEdge(Edge{Kind: kind, Caller: caller, InstrIdx: idx, Callee: callee})
}
