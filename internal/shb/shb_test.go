package shb_test

import (
	"math/rand"
	"sync"
	"testing"

	"o2/internal/ir"
	"o2/internal/lang"
	"o2/internal/osa"
	"o2/internal/pta"
	"o2/internal/shb"
	"o2/internal/workload"
)

func build(t *testing.T, src string, cfg shb.Config) (*pta.Analysis, *shb.Graph) {
	t.Helper()
	prog, err := lang.Compile("t.mini", src, ir.DefaultEntryConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := pta.New(prog, pta.Config{Policy: pta.Policy{Kind: pta.KOrigin, K: 1}, Entries: ir.DefaultEntryConfig()})
	if err := a.Solve(); err != nil {
		t.Fatal(err)
	}
	return a, shb.Build(a, cfg)
}

const spawnJoin = `
class S { field v; }
class W {
  field s;
  W(s) { this.s = s; }
  run() { x = this.s; x.v = this; }
}
main {
  s = new S();
  s.v = null;
  w = new W(s);
  w.start();
  w.join();
  s.v = null;
}
`

func TestSegmentsAndNodeOrder(t *testing.T) {
	a, g := build(t, spawnJoin, shb.Config{})
	if len(g.Segs) != 2 {
		t.Fatalf("want 2 segments (main + worker), got %d", len(g.Segs))
	}
	_ = a
	for _, seg := range g.Segs {
		last := -1
		for id := seg.First; id <= seg.Last; id++ {
			if g.Nodes[id].Seg != seg.ID {
				t.Fatalf("node %d claims wrong segment", id)
			}
			if id <= last {
				t.Fatalf("node IDs not increasing")
			}
			last = id
		}
	}
}

func TestSpawnAndJoinEdges(t *testing.T) {
	_, g := build(t, spawnJoin, shb.Config{})
	var mainSeg, workSeg *shb.Segment
	for _, s := range g.Segs {
		if s.Origin == pta.MainOrigin {
			mainSeg = s
		} else {
			workSeg = s
		}
	}
	outMain := g.OutEdges(mainSeg.ID)
	if len(outMain) != 1 {
		t.Fatalf("main should have 1 spawn edge, got %d", len(outMain))
	}
	if to := outMain[0].To; to != workSeg.First {
		t.Errorf("spawn edge targets %d, want worker First %d", to, workSeg.First)
	}
	outWork := g.OutEdges(workSeg.ID)
	if len(outWork) != 1 {
		t.Fatalf("worker should have 1 join edge, got %d", len(outWork))
	}
	if from := outWork[0].From; from != workSeg.Last {
		t.Errorf("join edge leaves %d, want worker Last %d", from, workSeg.Last)
	}
}

// HB truth table for the spawn/join program: main's first write precedes
// the worker's (through start); the worker's precedes main's last (through
// join).
func TestHappensBeforeThroughSpawnAndJoin(t *testing.T) {
	_, g := build(t, spawnJoin, shb.Config{})
	var preWrite, workWrite, postWrite int = -1, -1, -1
	for id, n := range g.Nodes {
		if n.Kind != shb.NWrite || g.Key(id).Field != "v" {
			continue
		}
		switch {
		case g.Origin(id) != pta.MainOrigin:
			workWrite = id
		case preWrite == -1:
			preWrite = id
		default:
			postWrite = id
		}
	}
	if preWrite < 0 || workWrite < 0 || postWrite < 0 {
		t.Fatalf("missing writes: %d %d %d", preWrite, workWrite, postWrite)
	}
	if !g.HappensBefore(preWrite, workWrite) {
		t.Errorf("pre-spawn write must happen before the worker write")
	}
	if !g.HappensBefore(workWrite, postWrite) {
		t.Errorf("worker write must happen before the post-join write")
	}
	if g.HappensBefore(workWrite, preWrite) || g.HappensBefore(postWrite, workWrite) {
		t.Errorf("HB must be antisymmetric here")
	}
	if !g.HappensBefore(preWrite, postWrite) {
		t.Errorf("intra-segment integer HB broken")
	}
}

func TestNoHBBetweenSiblingThreads(t *testing.T) {
	_, g := build(t, `
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
`, shb.Config{})
	var writes []int
	for id, n := range g.Nodes {
		if n.Kind == shb.NWrite && g.Key(id).Field == "v" && g.Origin(id) != pta.MainOrigin {
			writes = append(writes, id)
		}
	}
	if len(writes) != 2 {
		t.Fatalf("want 2 worker writes, got %d", len(writes))
	}
	if g.HappensBefore(writes[0], writes[1]) || g.HappensBefore(writes[1], writes[0]) {
		t.Errorf("sibling threads must be unordered")
	}
}

func TestLocksetsAndRegions(t *testing.T) {
	_, g := build(t, `
class S { field a; field b; }
class W {
  field s; field l;
  W(s, l) { this.s = s; this.l = l; }
  run() {
    x = this.s;
    k = this.l;
    x.a = this;
    sync (k) {
      x.a = this;
      x.b = this;
    }
    sync (k) {
      x.b = this;
    }
  }
}
main {
  s = new S();
  l = new L();
  w = new W(s, l);
  w.start();
}
`, shb.Config{})
	var unlocked, locked []shb.Node
	regions := map[int32]bool{}
	for id, n := range g.Nodes {
		if n.Kind != shb.NWrite || g.Origin(id) == pta.MainOrigin {
			continue
		}
		if n.Locks == 0 {
			unlocked = append(unlocked, n)
		} else {
			locked = append(locked, n)
			regions[n.Region] = true
		}
	}
	if len(unlocked) != 1 {
		t.Errorf("want 1 unlocked write, got %d", len(unlocked))
	}
	if len(locked) != 3 {
		t.Errorf("want 3 locked writes, got %d", len(locked))
	}
	if len(regions) != 2 {
		t.Errorf("two sync blocks should create two region instances, got %d", len(regions))
	}
	for _, n := range locked {
		if len(g.Locksets.Set(n.Locks)) != 1 {
			t.Errorf("locked write lockset = %v", g.Locksets.Set(n.Locks))
		}
	}
}

func TestNestedLocks(t *testing.T) {
	_, g := build(t, `
class S { field v; }
main {
  s = new S();
  l1 = new L();
  l2 = new L();
  sync (l1) {
    sync (l2) {
      s.v = null;
    }
  }
}
`, shb.Config{})
	for id, n := range g.Nodes {
		if n.Kind == shb.NWrite && g.Key(id).Field == "v" {
			if len(g.Locksets.Set(n.Locks)) != 2 {
				t.Errorf("nested sync should hold both locks: %v", g.Locksets.Set(n.Locks))
			}
		}
	}
}

func TestAndroidGlobalEventLock(t *testing.T) {
	src := `
class S { field v; }
class H {
  field s;
  H(s) { this.s = s; }
  onReceive(ev) { x = this.s; x.v = ev; }
}
main {
  s = new S();
  h = new H(s);
  ev = new Ev();
  h.onReceive(ev);
}
`
	_, plain := build(t, src, shb.Config{})
	_, android := build(t, src, shb.Config{AndroidEvents: true})
	handlerLocked := func(g *shb.Graph) bool {
		for id, n := range g.Nodes {
			if n.Kind == shb.NWrite && g.Key(id).Field == "v" && g.Origin(id) != pta.MainOrigin {
				return n.Locks != 0
			}
		}
		return false
	}
	if handlerLocked(plain) {
		t.Errorf("plain mode must not add the event lock")
	}
	if !handlerLocked(android) {
		t.Errorf("Android mode must serialize handlers with the global lock")
	}
}

func TestMaxNodesTruncation(t *testing.T) {
	_, g := build(t, spawnJoin, shb.Config{MaxNodes: 3})
	if len(g.Nodes) > 4 {
		t.Errorf("MaxNodes not honored: %d nodes", len(g.Nodes))
	}
}

// Property: the cached and uncached reachability agree on random node
// pairs of a nontrivial graph.
func TestHBCacheAgreesWithUncached(t *testing.T) {
	_, g := build(t, `
class S { field v; }
class W {
  field s;
  W(s) { this.s = s; }
  run() {
    x = this.s;
    x.v = this;
    c = new Child(x);
    c.start();
  }
}
class Child {
  field s;
  Child(s) { this.s = s; }
  run() { x = this.s; x.v = this; }
}
main {
  s = new S();
  w1 = new W(s);
  w2 = new W(s);
  w1.start();
  w2.start();
  w1.join();
  s.v = null;
}
`, shb.Config{})
	if n := len(g.Nodes); n < 5 {
		t.Fatalf("graph too small: %d", n)
	}
	checkHBAgreement(t, g)

	// A generated workload with channel, WaitGroup and join edges between
	// many segments, so the frontier index has real suffixes to share.
	p, ok := workload.ByName("gosync")
	if !ok {
		t.Fatal("gosync preset missing")
	}
	entries := ir.DefaultEntryConfig()
	a := pta.New(workload.Build(p, entries), pta.Config{Policy: pta.Policy{Kind: pta.KOrigin, K: 1}, Entries: entries})
	if err := a.Solve(); err != nil {
		t.Fatal(err)
	}
	checkHBAgreement(t, shb.Build(a, shb.Config{}))
}

// checkHBAgreement queries cached against uncached happens-before from
// several goroutines at once on a fresh graph, so the first queries of a
// frontier race through its single-flight entry (run under -race by the
// CI race pass).
func checkHBAgreement(t *testing.T, g *shb.Graph) {
	t.Helper()
	n := len(g.Nodes)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				x, y := rng.Intn(n), rng.Intn(n)
				if g.HappensBefore(x, y) != g.HappensBeforeNoCache(x, y) {
					t.Errorf("cache disagrees on (%d,%d)", x, y)
					return
				}
			}
		}(11 + int64(w%2)) // pairs of goroutines issue the same queries
	}
	wg.Wait()
}

// Accesses recorded in the SHB trace must agree with OSA's accesses: each
// read or write node's location is one OSA recorded, with the same key
// (a location's key names it uniquely) and the key's object; every other
// node carries no location.
func TestSHBKeysConsistentWithOSA(t *testing.T) {
	a, g := build(t, spawnJoin, shb.Config{})
	checkSHBAgainstOSA(t, "spawnJoin", a, g)
	for _, name := range []string{"zookeeper", "gosync"} {
		p, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("preset %s missing", name)
		}
		entries := ir.DefaultEntryConfig()
		a := pta.New(workload.Build(p, entries), pta.Config{Policy: pta.Policy{Kind: pta.KOrigin, K: 1}, Entries: entries})
		if err := a.Solve(); err != nil {
			t.Fatal(err)
		}
		checkSHBAgainstOSA(t, name, a, shb.Build(a, shb.Config{}))
	}
}

func checkSHBAgainstOSA(t *testing.T, name string, a *pta.Analysis, g *shb.Graph) {
	t.Helper()
	sh := osa.Analyze(a)
	keys := map[int32]osa.Key{}
	locs := map[osa.Key]int32{}
	for _, acc := range sh.Accesses {
		k := osa.LocKey(a, acc.Loc)
		if k.Field == "" && k.Static == "" {
			t.Fatalf("%s: OSA access location %d has no key", name, acc.Loc)
		}
		if loc, ok := locs[k]; ok && loc != acc.Loc {
			t.Fatalf("%s: locations %d and %d share key %v", name, loc, acc.Loc, k)
		}
		keys[acc.Loc], locs[k] = k, acc.Loc
	}
	accesses := 0
	for id, n := range g.Nodes {
		if n.Kind != shb.NRead && n.Kind != shb.NWrite {
			if n.Loc != -1 {
				t.Errorf("%s: %s node %d carries location %d", name, n.Kind, id, n.Loc)
			}
			continue
		}
		accesses++
		k, ok := keys[n.Loc]
		if !ok {
			t.Errorf("%s: SHB access %v unknown to OSA", name, g.Key(id))
			continue
		}
		if g.Key(id) != k || k.Obj != n.Obj {
			t.Errorf("%s: node %d key %v (obj %d), OSA has %v", name, id, g.Key(id), n.Obj, k)
		}
	}
	if accesses == 0 {
		t.Fatalf("%s: no access nodes", name)
	}
}

func TestWaitNotifyNodesAndEdges(t *testing.T) {
	_, g := build(t, `
class Cond { }
class P {
  field c;
  P(c) { this.c = c; }
  run() { x = this.c; x.notify(); }
}
class C {
  field c;
  C(c) { this.c = c; }
  run() { x = this.c; x.wait(); }
}
main {
  cv = new Cond();
  p = new P(cv);
  q = new C(cv);
  p.start();
  q.start();
}
`, shb.Config{})
	var notifyNode, waitNode = -1, -1
	for id, n := range g.Nodes {
		switch n.Kind {
		case shb.NNotify:
			notifyNode = id
		case shb.NWait:
			waitNode = id
		}
	}
	if notifyNode < 0 || waitNode < 0 {
		t.Fatalf("missing wait/notify nodes")
	}
	if !g.HappensBefore(notifyNode, waitNode) {
		t.Errorf("notify must happen before the matching wait")
	}
	if g.HappensBefore(waitNode, notifyNode) {
		t.Errorf("wait must not happen before notify")
	}
}
