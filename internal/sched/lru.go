package sched

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// lru is the bounded result cache: a classic map + intrusive-list LRU
// guarded by one mutex. Values are the encoded summaries of completed
// jobs; capacity is a fixed entry count (summaries are small — the
// scheduler never retains full analysis states). Hit/miss/eviction
// counters feed GET /statsz and the bench gate's batch section.
type lru struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// lruEntry is one cached result: the cold run's encoded summary, and
// the cached:true variant every hit shares, built on the first hit.
type lruEntry struct {
	key  string
	res  result
	once sync.Once
	hit  result
}

// cachedFlag is the field that marks a summary as cache-served.
const cachedFlag = `,"cached":true`

// hitResult returns the cached:true variant of the entry's summary. It
// is the stored bytes with the flag copied in, not a second encoding:
// Cached is a summary's last field, so the flag goes just before the
// closing brace.
func (e *lruEntry) hitResult() result {
	e.once.Do(func() {
		at := len(e.res.json) - len("}")
		b := make([]byte, 0, len(e.res.json)+len(cachedFlag))
		b = append(b, e.res.json[:at]...)
		b = append(b, cachedFlag...)
		e.hit = result{json: append(b, e.res.json[at:]...), races: e.res.races}
	})
	return e.hit
}

func newLRU(capacity int) *lru {
	return &lru{cap: capacity, ll: list.New(), items: map[string]*list.Element{}}
}

// get returns the cache-served result for key and promotes its entry.
// Every job served from one entry shares its bytes. The miss counter is
// NOT bumped here — Submit counts a miss only when it goes on to run the
// job, so racing submissions of the same program do not double-count.
func (c *lru) get(key string) (result, bool) {
	c.mu.Lock()
	el, ok := c.items[key]
	if !ok {
		c.mu.Unlock()
		return result{}, false
	}
	c.ll.MoveToFront(el)
	c.hits.Add(1)
	e := el.Value.(*lruEntry)
	c.mu.Unlock()
	return e.hitResult(), true // a first hit copies the bytes outside the lock
}

func (c *lru) miss() { c.misses.Add(1) }

// put caches a cold run's encoded summary, inserting or replacing the
// entry and evicting the least recently used one when over capacity.
func (c *lru) put(key string, res result) {
	e := &lruEntry{key: key, res: res}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value = e
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(e)
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		if oldest == nil {
			break
		}
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
		c.evictions.Add(1)
	}
}

func (c *lru) stats() (hits, misses, evictions int64, entries int) {
	c.mu.Lock()
	entries = c.ll.Len()
	c.mu.Unlock()
	return c.hits.Load(), c.misses.Load(), c.evictions.Load(), entries
}
