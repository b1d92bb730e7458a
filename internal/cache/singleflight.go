package cache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// flight is one in-progress computation and, once done is closed, its
// result. Waiters hold a pointer to it across the map delete, so a
// finished flight stays readable after the group forgets the key.
type flight[V any] struct {
	done    chan struct{}
	waiters atomic.Int32
	v       V
	err     error
}

// Group collapses concurrent calls with the same key into one
// computation (the classic "singleflight" pattern, generic over key and
// value). The zero value is ready to use; a Group must not be copied
// after first use. Safe for concurrent use.
type Group[K comparable, V any] struct {
	mu       sync.Mutex
	inflight map[K]*flight[V]
}

// Waiting returns how many callers are currently blocked on the key's
// in-flight computation (0 when none is running). Introspection for
// tests and debugging.
func (g *Group[K, V]) Waiting(key K) int {
	g.mu.Lock()
	f := g.inflight[key]
	g.mu.Unlock()
	if f == nil {
		return 0
	}
	return int(f.waiters.Load())
}

// Do executes fn under key, collapsing concurrent duplicates: while one
// caller (the leader) runs fn, every other caller with the same key
// waits and shares the leader's result instead of computing. shared
// reports whether the returned value came from another caller's
// computation.
//
// Two rules shape the waiting side:
//
//   - A waiter whose own context ends stops waiting and returns its
//     context error; the leader keeps computing for the rest.
//   - A cancelled computation is never shared. When the leader returns a
//     context error — its client hung up or its deadline fired — waiters
//     do not inherit that error: each retries, and one becomes the new
//     leader under its own (live) context. The leader itself does get
//     its context error back.
func (g *Group[K, V]) Do(ctx context.Context, key K, fn func(context.Context) (V, error)) (v V, shared bool, err error) {
	for {
		if err := ctx.Err(); err != nil {
			var zero V
			return zero, false, err
		}
		g.mu.Lock()
		if g.inflight == nil {
			g.inflight = make(map[K]*flight[V])
		}
		if f, ok := g.inflight[key]; ok {
			f.waiters.Add(1)
			g.mu.Unlock()
			select {
			case <-ctx.Done():
				f.waiters.Add(-1)
				var zero V
				return zero, false, ctx.Err()
			case <-f.done:
			}
			f.waiters.Add(-1)
			if f.err != nil && isContextErr(f.err) {
				continue // never share a cancelled result; retry, maybe as leader
			}
			return f.v, true, f.err
		}
		f := &flight[V]{done: make(chan struct{})}
		g.inflight[key] = f
		g.mu.Unlock()
		g.lead(ctx, key, f, fn)
		return f.v, false, f.err
	}
}

// lead runs fn as the key's leader and always releases the flight, even
// when fn panics: the key is forgotten, waiters wake with ErrPanicked
// instead of blocking until their own deadlines, and the panic resumes
// in the leader's goroutine.
func (g *Group[K, V]) lead(ctx context.Context, key K, f *flight[V], fn func(context.Context) (V, error)) {
	f.err = ErrPanicked
	defer func() {
		g.mu.Lock()
		delete(g.inflight, key)
		g.mu.Unlock()
		close(f.done)
	}()
	f.v, f.err = fn(ctx)
}

// ErrPanicked is what waiters receive when the leader's computation
// panicked; the leader itself re-panics.
var ErrPanicked = errors.New("cache: shared computation panicked")

// isContextErr reports whether err is a context cancellation or an
// expired deadline — the results singleflight refuses to share and the
// answer store refuses to keep.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
