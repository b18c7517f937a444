package serve

import (
	"container/list"
	"sync"

	"repro/internal/obs"
)

// lru is a hard-capped, mutex-guarded LRU keyed by canonical strings.
// It backs both daemon caches: the per-scenario context cache (each
// entry owning a core.Context whose cells hold the heavyweight
// memoized artifacts) and the /v1/predict report cache. The query
// routes let any request mint a new key, so without a hard cap a scan
// of ?seed=1..N would pin N simulations in memory; with it, the
// least-recently-used value is dropped and rebuilds (or reloads from
// checkpoint) on its next use.
//
// Each instance exports its occupancy and eviction count under the
// metric names it was built with:
//
//	<name>.live    gauge, values currently cached
//	<name>.evicted counter, values dropped over the cap
type lru[V any] struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used
	m   map[string]*list.Element

	live    *obs.Gauge
	evicted *obs.Counter

	// onEvict, when set, is called with each value dropped over the
	// cap. It runs under the LRU's lock so that a key re-created right
	// after its eviction cannot see its new state torn down by the
	// callback; it must not call back into the LRU.
	onEvict func(V)
}

// lruItem is one cached value keyed by its canonical string.
type lruItem[V any] struct {
	key string
	v   V
}

// newLRU builds an LRU holding at most cap values (minimum 1),
// exporting <metricBase>.live and <metricBase>.evicted.
func newLRU[V any](cap int, reg *obs.Registry, metricBase string) *lru[V] {
	if cap < 1 {
		cap = 1
	}
	return &lru[V]{
		cap:     cap,
		ll:      list.New(),
		m:       make(map[string]*list.Element),
		live:    reg.Gauge(metricBase + ".live"),
		evicted: reg.Counter(metricBase + ".evicted"),
	}
}

// getOrCreate returns the value cached under key, making it the most
// recently used, or installs mk()'s value and evicts past the cap. hit
// reports whether the value was already cached (the access log's
// ctx_cached flag). An evicted value is simply unlinked: builds
// already running against it finish against its (now unreachable)
// state and are garbage collected together with it.
func (l *lru[V]) getOrCreate(key string, mk func() V) (v V, hit bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.m[key]; ok {
		l.ll.MoveToFront(el)
		return el.Value.(*lruItem[V]).v, true
	}
	v = mk()
	l.m[key] = l.ll.PushFront(&lruItem[V]{key: key, v: v})
	l.trim()
	return v, false
}

// get returns the value cached under key, making it the most recently
// used.
func (l *lru[V]) get(key string) (V, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.m[key]; ok {
		l.ll.MoveToFront(el)
		return el.Value.(*lruItem[V]).v, true
	}
	var zero V
	return zero, false
}

// put installs (or overwrites) key's value as the most recently used,
// evicting past the cap.
func (l *lru[V]) put(key string, v V) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.m[key]; ok {
		el.Value.(*lruItem[V]).v = v
		l.ll.MoveToFront(el)
		return
	}
	l.m[key] = l.ll.PushFront(&lruItem[V]{key: key, v: v})
	l.trim()
}

// trim evicts least-recently-used values past the cap. The caller
// holds the lock.
func (l *lru[V]) trim() {
	for l.ll.Len() > l.cap {
		back := l.ll.Back()
		l.ll.Remove(back)
		it := back.Value.(*lruItem[V])
		delete(l.m, it.key)
		l.evicted.Add(1)
		if l.onEvict != nil {
			l.onEvict(it.v)
		}
	}
	l.live.Set(float64(l.ll.Len()))
}

// len reports how many values are cached.
func (l *lru[V]) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ll.Len()
}
