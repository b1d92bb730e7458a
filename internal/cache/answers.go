package cache

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Answers is the second cache shape this package provides, built for
// finished query answers rather than intermediate memos: a versioned,
// TTL-aware, size-bounded LRU store with singleflight fill. Callers go
// through Do, which collapses concurrent identical requests into one
// computation (losers wait and share the winner's result), refuses to
// keep or share cancelled or caller-vetoed results, and stamps every
// entry with the store's version so a Bump — a dataset reload, say —
// atomically invalidates everything computed before it. A store of
// capacity 0 keeps nothing and only coalesces in-flight computations.
//
// Values handed to Put/Do are shared between all future readers and
// must be treated as immutable. Safe for concurrent use.
type Answers[V any] struct {
	cap    int
	ttl    time.Duration // 0 = entries never expire
	sizeOf func(V) int
	now    func() time.Time // test seam for TTL expiry

	mu    sync.Mutex
	m     map[string]*list.Element // key → element holding *aentry[V]
	lru   *list.List               // front = most recently used
	bytes int64

	version atomic.Uint64
	sf      Group[string, fill[V]]

	// Delta invalidation: EvictIf removes matching entries immediately
	// and records (seq, pred) in a bounded ring so in-flight
	// computations that began before the eviction cannot re-publish a
	// stale answer afterwards — put re-checks every invalidation newer
	// than the computation's start sequence, and discards outright when
	// the ring has already shed entries it would need (invalFloor).
	invalSeq   atomic.Uint64
	invals     []inval[V] // guarded by mu; ascending seq
	invalFloor uint64     // guarded by mu; newest seq dropped from the ring

	hits, misses, evictions, coalesced atomic.Int64
}

// inval is one recorded delta invalidation: answers whose computation
// began at or before seq and that match pred are stale.
type inval[V any] struct {
	seq  uint64
	pred func(key string, v V) bool
}

// invalRing bounds how many delta invalidations are retained for
// in-flight put verification. Computations older than the retained
// window are discarded rather than trusted — correctness never depends
// on the ring being large, only throughput of very slow leaders.
const invalRing = 64

// aentry is one stored answer with its version stamp and expiry.
type aentry[V any] struct {
	key     string
	v       V
	size    int64
	version uint64
	expires time.Time // zero = no expiry
}

// fill carries a singleflight result plus how the leader obtained it.
// shareable is false for an answer the leader's fn declined to store:
// it answers the leader alone, never a waiter.
type fill[V any] struct {
	v         V
	fromCache bool
	shareable bool
}

// AnswerStats is a point-in-time snapshot of an answer store's
// counters. Evictions counts every removal — capacity pressure, TTL
// expiry, and version-stamp staleness alike.
type AnswerStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Coalesced int64
	Len       int
	Bytes     int64
	Cap       int
}

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (s AnswerStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// NewAnswers creates an answer store holding at most capacity entries,
// each expiring ttl after insertion (0 = no expiry); capacity 0 keeps
// nothing and only coalesces. sizeOf estimates an entry's resident
// bytes for the Bytes gauge; nil counts 1 per entry.
func NewAnswers[V any](capacity int, ttl time.Duration, sizeOf func(V) int) *Answers[V] {
	if capacity < 0 {
		panic("cache: negative answer capacity")
	}
	if sizeOf == nil {
		sizeOf = func(V) int { return 1 }
	}
	return &Answers[V]{
		cap:    capacity,
		ttl:    ttl,
		sizeOf: sizeOf,
		now:    time.Now,
		m:      make(map[string]*list.Element, capacity),
		lru:    list.New(),
	}
}

// Get returns the live answer under key, counting the lookup and
// touching the entry's recency. Entries whose version stamp is stale or
// whose TTL has passed are removed and reported as misses.
func (a *Answers[V]) Get(key string) (V, bool) {
	a.mu.Lock()
	if el, ok := a.m[key]; ok {
		e := el.Value.(*aentry[V])
		if a.liveLocked(e) {
			a.lru.MoveToFront(el)
			a.mu.Unlock()
			a.hits.Add(1)
			return e.v, true
		}
		a.removeLocked(el)
		a.evictions.Add(1)
	}
	a.mu.Unlock()
	a.misses.Add(1)
	var zero V
	return zero, false
}

// peek is Get without counters or recency: the singleflight leader's
// last-moment re-check, so two callers racing past a Get miss cannot
// both compute.
func (a *Answers[V]) peek(key string) (V, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if el, ok := a.m[key]; ok {
		e := el.Value.(*aentry[V])
		if a.liveLocked(e) {
			return e.v, true
		}
	}
	var zero V
	return zero, false
}

// liveLocked reports whether the entry is current-version and unexpired.
func (a *Answers[V]) liveLocked(e *aentry[V]) bool {
	if e.version != a.version.Load() {
		return false
	}
	return e.expires.IsZero() || !a.now().After(e.expires)
}

// Put stores v under key at the current version, evicting from the LRU
// tail when the store is over capacity.
func (a *Answers[V]) Put(key string, v V) {
	a.put(key, v, a.version.Load(), a.invalSeq.Load())
}

// put stores v stamped with an explicit version — the version the
// computation began under, so an answer computed against a dataset that
// was reloaded mid-computation can never be served afterwards. startSeq
// is the invalidation sequence at computation start: if any delta
// invalidation newer than it matches key, or the ring no longer holds
// enough history to check, the answer is silently dropped instead of
// stored — a leader that began before an append cannot publish a
// pre-append answer after the append's eviction pass ran.
func (a *Answers[V]) put(key string, v V, version, startSeq uint64) {
	if a.cap == 0 {
		return
	}
	size := int64(a.sizeOf(v))
	e := &aentry[V]{key: key, v: v, size: size, version: version}
	if a.ttl > 0 {
		e.expires = a.now().Add(a.ttl)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if startSeq < a.invalFloor {
		return
	}
	for i := len(a.invals) - 1; i >= 0 && a.invals[i].seq > startSeq; i-- {
		if a.invals[i].pred(key, v) {
			return
		}
	}
	if el, ok := a.m[key]; ok {
		a.removeLocked(el)
	}
	a.m[key] = a.lru.PushFront(e)
	a.bytes += size
	for a.lru.Len() > a.cap {
		a.removeLocked(a.lru.Back())
		a.evictions.Add(1)
	}
}

// EvictIf removes every stored answer that matches pred (given its key
// and value) and returns how many were dropped. The predicate is also
// recorded (see put) so computations already in flight when EvictIf ran
// cannot re-introduce an answer the eviction targeted: late puts are
// checked against the value being put. pred must be pure: it is called
// under the store lock, now and on future puts.
func (a *Answers[V]) EvictIf(pred func(key string, v V) bool) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	seq := a.invalSeq.Add(1)
	a.invals = append(a.invals, inval[V]{seq: seq, pred: pred})
	if len(a.invals) > invalRing {
		a.invalFloor = a.invals[0].seq
		a.invals = append(a.invals[:0:0], a.invals[1:]...)
	}
	n := 0
	for el := a.lru.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*aentry[V]); pred(e.key, e.v) {
			a.removeLocked(el)
			a.evictions.Add(1)
			n++
		}
		el = next
	}
	return n
}

// removeLocked unlinks one entry and settles the bytes gauge.
func (a *Answers[V]) removeLocked(el *list.Element) {
	e := el.Value.(*aentry[V])
	a.lru.Remove(el)
	delete(a.m, e.key)
	a.bytes -= e.size
}

// Bump advances the version stamp, logically invalidating every stored
// answer at once. Stale entries are dropped lazily as lookups touch
// them; in-flight computations that began before the bump will store
// under the old stamp and likewise never be served.
func (a *Answers[V]) Bump() { a.version.Add(1) }

// Version returns the current version stamp.
func (a *Answers[V]) Version() uint64 { return a.version.Load() }

// Outcome classifies how Do served an answer.
type Outcome int

const (
	// OutcomeMiss: this caller computed the answer.
	OutcomeMiss Outcome = iota
	// OutcomeHit: the answer was already stored.
	OutcomeHit
	// OutcomeCoalesced: another caller was already computing the same
	// answer; this caller waited and shared it.
	OutcomeCoalesced
)

// Do returns the answer under key, computing it with fn on a miss.
// Concurrent calls with the same key collapse into one fn invocation;
// the rest wait and share the winner's result (never a cancelled one —
// see Group.Do). fn's second result vetoes storage: return false for
// answers that must not be cached (degraded/partial results). A vetoed
// answer is not shared either — waiters retry, and one becomes the
// leader under its own context. Errors are never stored.
func (a *Answers[V]) Do(ctx context.Context, key string, fn func(context.Context) (V, bool, error)) (V, Outcome, error) {
	if v, ok := a.Get(key); ok {
		return v, OutcomeHit, nil
	}
	return a.Compute(ctx, key, fn)
}

// Compute is Do for a caller that already consulted Get and missed: it
// runs the coalesced fill without counting a second lookup, so one
// request contributes exactly one hit, miss, or coalesce to Stats.
// OutcomeHit is still possible — another caller may store the answer
// between the caller's Get and the fill's re-check.
func (a *Answers[V]) Compute(ctx context.Context, key string, fn func(context.Context) (V, bool, error)) (V, Outcome, error) {
	for {
		ver := a.version.Load()
		startSeq := a.invalSeq.Load()
		r, shared, err := a.sf.Do(ctx, key, func(ctx context.Context) (fill[V], error) {
			if v, ok := a.peek(key); ok {
				return fill[V]{v: v, fromCache: true, shareable: true}, nil
			}
			v, store, err := fn(ctx)
			if err != nil {
				return fill[V]{}, err
			}
			if store {
				a.put(key, v, ver, startSeq)
			}
			return fill[V]{v: v, shareable: store}, nil
		})
		switch {
		case err != nil:
			var zero V
			return zero, OutcomeMiss, err
		case shared && !r.shareable:
			continue // the leader's answer was its own (a partial one, say); retry
		case shared:
			a.coalesced.Add(1)
			return r.v, OutcomeCoalesced, nil
		case r.fromCache:
			return r.v, OutcomeHit, nil
		default:
			return r.v, OutcomeMiss, nil
		}
	}
}

// Waiting returns how many callers are blocked on the key's in-flight
// computation (test/debug introspection, see Group.Waiting).
func (a *Answers[V]) Waiting(key string) int { return a.sf.Waiting(key) }

// Len returns the number of stored entries, including any not yet
// swept after a Bump or TTL expiry.
func (a *Answers[V]) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lru.Len()
}

// Stats snapshots the store's counters.
func (a *Answers[V]) Stats() AnswerStats {
	a.mu.Lock()
	n, b := a.lru.Len(), a.bytes
	a.mu.Unlock()
	return AnswerStats{
		Hits:      a.hits.Load(),
		Misses:    a.misses.Load(),
		Evictions: a.evictions.Load(),
		Coalesced: a.coalesced.Load(),
		Len:       n,
		Bytes:     b,
		Cap:       a.cap,
	}
}
