package kdapcore

// The request pipeline. Each phase — differentiate and explore — is one
// private pipeline whose stages run in a fixed order:
//
//	answer-store lookup → batch gather → coalesce → compute → store
//
// and engine configuration switches them: SetAnswerCache turns on the
// lookup and the store, SetBatching the gather (explore only:
// differentiate runs no fact-table scans, so it never waits for
// company), and either turns on coalescing. The one singleflight per
// result kind is the one inside the phase's cache.Answers store: with
// the answer cache on the store keeps up to its configured capacity;
// with only batching on it has capacity 0, coalescing identical
// in-flight requests and keeping nothing; with both off there is no
// store and nothing coalesces. Four rules keep answers honest:
//
//   - cancelled computations are never cached or shared (enforced by
//     cache.Group/cache.Answers);
//   - partial (deadline-degraded) facets are never cached, and never
//     handed to a coalesced waiter — the degradation belongs to the
//     request whose deadline caused it;
//   - every entry carries the data version current when its computation
//     began, so InvalidateAnswers after a dataset reload atomically
//     retires everything computed before it;
//   - an append evicts exactly the explore answers whose net's
//     dependency scope gains rows (ingest.go), judged from the stored
//     Facets.Net itself.
//
// Cached values ([]*StarNet, *Facets) are shared between callers and
// treated as immutable — the established contract for both types once
// the pipeline returns them (drills build new nets, they never mutate).

import (
	"context"
	"sort"
	"strconv"
	"strings"
	"time"

	"kdap/internal/cache"
	"kdap/internal/telemetry"
	"kdap/internal/telemetry/profile"
)

// cacheOutcome is how the pipeline served a request. It is recorded on
// the request's wide event, from which the HTTP layer echoes it as the
// X-KDAP-Cache header.
type cacheOutcome string

const (
	// cacheBypass: no answer cache is configured, or the call is not
	// cacheable (an Explore with a CustomScore func has no canonical
	// key).
	cacheBypass cacheOutcome = "bypass"
	// cacheMiss: this call performed the computation (and cached it).
	cacheMiss cacheOutcome = "miss"
	// cacheHit: served from the store without computing.
	cacheHit cacheOutcome = "hit"
	// cacheCoalesced: an identical call was already in flight; this one
	// waited and shared its result.
	cacheCoalesced cacheOutcome = "coalesced"
)

// SetAnswerCache enables the engine's answer cache: up to entries
// finished results per phase (Differentiate and Explore each), expiring
// ttl after insertion (0 = no expiry). entries <= 0 disables caching.
// Configure at startup — not safe to call concurrently with queries.
func (e *Engine) SetAnswerCache(entries int, ttl time.Duration) {
	e.answerEntries, e.answerTTL = max(entries, 0), ttl
	e.resetAnswerStores()
}

// resetAnswerStores rebuilds the per-phase answer stores from the
// answer-cache and batching settings: a store exists whenever the
// engine coalesces, and keeps answers only when the cache is on.
func (e *Engine) resetAnswerStores() {
	if e.answerEntries == 0 && e.batch.Load() == nil {
		e.diffAnswers, e.explAnswers = nil, nil
		return
	}
	e.diffAnswers = cache.NewAnswers[[]*StarNet](e.answerEntries, e.answerTTL, netsFootprint)
	e.explAnswers = cache.NewAnswers[*Facets](e.answerEntries, e.answerTTL, facetsFootprint)
}

// AnswerCacheEnabled reports whether SetAnswerCache has been configured.
func (e *Engine) AnswerCacheEnabled() bool { return e.answerEntries > 0 }

// AnswerCacheStats snapshots both answer stores' counters; ok is false
// when the engine neither caches nor coalesces. With batching alone the
// stores keep nothing, and only Coalesced moves.
func (e *Engine) AnswerCacheStats() (diff, expl cache.AnswerStats, ok bool) {
	if e.diffAnswers == nil {
		return cache.AnswerStats{}, cache.AnswerStats{}, false
	}
	return e.diffAnswers.Stats(), e.explAnswers.Stats(), true
}

// InvalidateAnswers advances the engine's data version, retiring every
// cached answer at once. Call it when the backing dataset changes (a
// snapshot reload, a re-ingest): answers computed against the old data
// — including fills still in flight — can never be served afterwards.
func (e *Engine) InvalidateAnswers() {
	e.dataVersion.Add(1)
	if e.diffAnswers != nil {
		e.diffAnswers.Bump()
		e.explAnswers.Bump()
	}
}

// DataVersion returns the engine's dataset version stamp. It advances
// on InvalidateAnswers and participates in the HTTP layer's ETags, so
// a reload also invalidates client-side conditional caching.
func (e *Engine) DataVersion() uint64 { return e.dataVersion.Load() }

// CanonicalQuery normalizes a keyword query to its cache identity:
// whitespace runs collapse to single spaces. Token case is preserved —
// filter tokens like "UnitPrice>1000" resolve column names
// case-sensitively, so case folding here could change meaning.
func CanonicalQuery(q string) string { return strings.Join(strings.Fields(q), " ") }

// diffAnswerKey is the differentiate store key: rank method + the
// canonicalized query.
func diffAnswerKey(query string, method RankMethod) string {
	return strconv.Itoa(int(method)) + "\x1f" + CanonicalQuery(query)
}

// ExploreCacheKey renders the canonical cache identity of an Explore
// call: the net's subspace signature plus every option that shapes the
// result. ok is false when the call is uncacheable (a CustomScore func
// cannot be canonicalized). Parallel, PartialOnDeadline, and
// SegmentCacheMB are deliberately excluded — Parallel and
// SegmentCacheMB produce identical output by contract (they shape
// wall-clock and memory use only), and partial results are never
// stored or shared.
func ExploreCacheKey(sn *StarNet, o ExploreOptions) (key string, ok bool) {
	if o.CustomScore != nil {
		return "", false
	}
	var b strings.Builder
	b.WriteString(sn.Signature())
	sep := func() { b.WriteByte('\x1f') }
	sep()
	b.WriteString(strconv.Itoa(int(o.Mode)))
	for _, n := range []int{o.TopKAttrs, o.TopKInstances, o.Buckets, o.DisplayIntervals, o.AnnealIters} {
		sep()
		b.WriteString(strconv.Itoa(n))
	}
	sep()
	b.WriteString(strconv.FormatFloat(o.SkewLimit, 'g', -1, 64))
	sep()
	b.WriteString(strconv.FormatUint(o.Seed, 10))
	sep()
	b.WriteString(strconv.FormatBool(o.RankCorrelation))
	if len(o.Pinned) > 0 {
		pinned := make([]string, len(o.Pinned))
		for i, p := range o.Pinned {
			pinned[i] = p.Table + "." + p.Attr
		}
		sort.Strings(pinned)
		for _, p := range pinned {
			sep()
			b.WriteString(p)
		}
	}
	return b.String(), true
}

// serve runs one request through a phase pipeline around its compute
// stage (see the file comment). store is nil when the engine neither
// caches nor coalesces or the request has no canonical key; gather
// admits the request to the batch scheduler when batching is on. The
// outcome of a successful request is recorded on its wide event.
func serve[V any](ctx context.Context, e *Engine, store *cache.Answers[V], key string, gather bool,
	compute func(context.Context) (V, bool, error)) (V, error) {

	p := profile.FromContext(ctx)
	caching := store != nil && e.AnswerCacheEnabled()
	if caching {
		_, sp := telemetry.StartSpan(ctx, "cache_lookup")
		v, ok := store.Get(key)
		sp.End()
		if ok {
			p.SetCacheOutcome(string(cacheHit))
			return v, nil
		}
	}
	b := e.batch.Load()
	if b != nil && gather {
		_, gsp := telemetry.StartSpan(ctx, "batch_gather")
		scope, err := b.join(ctx)
		gsp.End()
		if err != nil {
			var zero V
			return zero, err
		}
		ctx = withScanScope(ctx, scope)
		p.SetBatch(scope.batchID, scope.size)
	}
	if store == nil {
		v, _, err := compute(ctx)
		if err == nil {
			p.SetCacheOutcome(string(cacheBypass))
		}
		return v, err
	}
	t0 := time.Now()
	v, oc, err := store.Compute(ctx, key, compute)
	if err != nil {
		return v, err
	}
	out := cacheMiss
	switch {
	case oc == cache.OutcomeHit:
		out = cacheHit
	case oc == cache.OutcomeCoalesced:
		out = cacheCoalesced
		if b != nil {
			noteSharedAnswer(ctx, time.Since(t0))
		}
	case !caching:
		out = cacheBypass
	}
	p.SetCacheOutcome(string(out))
	return v, nil
}

// noteSharedAnswer marks a follower request of a batching engine: its
// whole answer was adopted from an identical in-flight request. The
// wait-and-adopt is recorded as a batch_shared stage, so a follower's
// trace shows where its answer came from instead of an empty tree, and
// the wide event flips to the follower role.
func noteSharedAnswer(ctx context.Context, d time.Duration) {
	telemetry.SpanFromContext(ctx).AddTimed("batch_shared", d)
	profile.FromContext(ctx).MarkSharedAnswer()
}

// netsFootprint approximates the resident bytes of a ranked star-net
// list for the answer cache's bytes gauge: struct and slice headers
// plus string payloads, not a precise deep size.
func netsFootprint(nets []*StarNet) int {
	n := 24
	for _, sn := range nets {
		n += 120 + len(sn.Query)
		for i := range sn.Groups {
			bg := &sn.Groups[i]
			n += 96 + len(bg.Group.Phrase)
			for _, h := range bg.Group.Hits {
				n += 48 + len(h.Value.Text())
			}
		}
		n += 48 * len(sn.Filters)
	}
	return n
}

// facetsFootprint approximates the resident bytes of a facets tree.
func facetsFootprint(f *Facets) int {
	n := 96
	for _, d := range f.Dimensions {
		n += 64 + len(d.Dimension)
		for _, a := range d.Attributes {
			n += 128 + len(a.Attr.Table) + len(a.Attr.Attr) + len(a.Role)
			for _, inst := range a.Instances {
				n += 80 + len(inst.Label)
			}
		}
	}
	return n
}
