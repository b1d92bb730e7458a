package olap

import (
	"context"
	"math"
	"sort"
	"sync"

	"kdap/internal/bitset"
	"kdap/internal/relation"
	"kdap/internal/schemagraph"
	"kdap/internal/shard"
	"kdap/internal/telemetry"
	"kdap/internal/telemetry/profile"
)

// Sharded scatter-gather execution. With SetShards the executor
// partitions the fact table into contiguous row-range shards carrying
// zone maps (internal/shard); the row-set producers — sub-dataspace
// semijoin intersection, numeric predicate filters, numeric series
// extraction — plan each scan against the zone maps and constraint
// bitsets, skip shards that cannot contain qualifying rows, and gather
// the survivors' results in shard order.
//
// Pruning is applied only to exact row-set computations: a shard is
// skipped when *no row in it* can qualify (its zone map misses the
// predicate's bound interval, or a constraint bitset has no member in
// its row range), so the gathered row sets — and everything computed
// from them — are byte-identical to the monolithic scan. The float
// aggregation kernels (groupScan, scanAggregate) deliberately keep
// their shard-independent chunk grid: float addition is not
// associative, and re-chunking sums along shard boundaries would change
// low-order bits versus the monolithic path. Shards bound what is
// scanned, never how partial sums merge.

// SetShards partitions the fact table into n contiguous row-range
// shards with zone maps, enabling shard pruning on the row-set
// producers. n <= 1 restores the monolithic scan. Safe to call
// concurrently with queries; in-flight scans finish on the partition
// they started with.
func (ex *Executor) SetShards(n int) {
	switch {
	case n <= 1:
		ex.partition.Store(nil)
	case ex.fact.Backing() != nil:
		// Backed fact tables get shard boundaries aligned to segment
		// multiples, with zone maps folded from the per-segment zones in
		// the manifest — no dense column materialization.
		ex.partition.Store(shard.BuildSegmented(ex.fact, n))
	default:
		ex.partition.Store(shard.Build(ex.fact, n))
	}
	// Per-(path,attr) shard zones are aligned to the old partition.
	ex.mu.Lock()
	ex.attrZone = make(map[attrColKey]*attrZones)
	ex.mu.Unlock()
}

// ExtendForAppend folds appended fact rows [p.NumRows(), newN) into the
// executor's partition, when one is set: the last shard absorbs the new
// rows with its zone maps widened from the fact columns. Everything
// else the executor memoizes — fact→dimension maps, attribute code and
// float vectors, per-shard attribute zones, per-constraint bitsets — is
// coverage-checked at fetch time and extends itself lazily, so this is
// the only eager step. Readers holding the old partition keep a
// consistent (shorter) prefix view.
func (ex *Executor) ExtendForAppend(newN int) {
	for {
		p := ex.partition.Load()
		if p == nil || p.NumRows() >= newN {
			return
		}
		if ex.partition.CompareAndSwap(p, p.Extend(ex.fact, newN)) {
			return
		}
	}
}

// ScanCoverage returns a fact length that every row-set scan starting
// after the call covers. Under a partition that is the partition's row
// count, which trails the fact length between an append publishing its
// rows and ExtendForAppend widening the last shard: a sharded scan in
// that gap sees only the old range. Callers that memoize a row set
// label it with this, not FactLen, so the appended range is picked up
// later instead of being marked as covered.
func (ex *Executor) ScanCoverage() int {
	n := ex.fact.Len()
	if p := ex.partition.Load(); p != nil {
		n = min(n, p.NumRows())
	}
	return n
}

// Partition returns the current fact partition, or nil when running
// monolithically.
func (ex *Executor) Partition() *shard.Partition { return ex.partition.Load() }

// ShardCount returns the number of shards (0 when monolithic).
func (ex *Executor) ShardCount() int {
	if p := ex.partition.Load(); p != nil {
		return p.Count()
	}
	return 0
}

// noteShardPlan folds one scan's planning verdict into the counters and
// the request's wide event, when one rides the context.
func (ex *Executor) noteShardPlan(ctx context.Context, pl shard.Plan) {
	ex.stats.shardsScanned.Add(int64(pl.Scanned()))
	ex.stats.shardsPrunedZone.Add(int64(pl.PrunedZone))
	ex.stats.shardsPrunedBits.Add(int64(pl.PrunedBits))
	profile.FromContext(ctx).AddShards(pl.Scanned(), pl.PrunedZone, pl.PrunedBits)
}

// factRowsSharded gathers the constraint intersection shard by shard:
// the planner drops every shard whose zone maps miss a drill bound or
// in which some constraint bitset has no member, and the survivors'
// rows are emitted ascending via a masked word-parallel walk — no
// intermediate bitset clone, no full-universe scan. With no bounds the
// output is identical to intersecting the bitsets whole; with bounds,
// identical after the caller's row-level predicates run.
func (ex *Executor) factRowsSharded(ctx context.Context, p *shard.Partition, bounds []shard.Bound, sets []*bitset.Set) ([]int, error) {
	_, sp := telemetry.StartSpan(ctx, "shard_scan")
	defer sp.End()
	pl := p.Plan(bounds, sets)
	ex.noteShardPlan(ctx, pl)
	var rows []int
	done := ctx.Done()
	for _, si := range pl.Survivors {
		if done != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		sh := p.Shards()[si]
		if len(sets) == 0 {
			// Unconstrained scan: every row of the surviving shard.
			for r := sh.Lo; r < sh.Hi; r++ {
				rows = append(rows, r)
			}
			continue
		}
		rows = bitset.IntersectRangeAppend(rows, sh.Lo, sh.Hi, sets)
	}
	return rows, nil
}

// Bounds for predicates that restrict only one side.
var (
	negInf = math.Inf(-1)
	posInf = math.Inf(1)
)

// FilterFactNumericCtx keeps the fact rows whose numeric fact column
// satisfies pred, where [lo, hi] is a conservative closed-interval
// superset of pred's accepting set (every x with pred(x) true has
// lo <= x <= hi — the caller derives it from the predicate's operator).
// The scan reads the table's dense float view instead of boxed rows;
// under a partition, shards whose zone map misses [lo, hi] are skipped
// and the survivors scan in parallel, gathering in shard order. NULL
// (NaN) values never match. rows must be sorted ascending; the result
// is exactly the monolithic filter's.
func (ex *Executor) FilterFactNumericCtx(ctx context.Context, rows []int, col string, lo, hi float64, pred func(float64) bool) ([]int, error) {
	if ex.fact.Backing() != nil {
		return ex.filterFactNumericBacked(ctx, rows, col, lo, hi, pred)
	}
	vals := ex.fact.FloatColumn(col)
	p := ex.partition.Load()
	if p == nil || len(rows) == 0 {
		return filterByVals(ctx, rows, vals, pred)
	}
	_, sp := telemetry.StartSpan(ctx, "shard_scan")
	defer sp.End()
	pl := p.Plan([]shard.Bound{{Col: col, Lo: lo, Hi: hi}}, nil)
	ex.noteShardPlan(ctx, pl)
	return ex.filterGather(ctx, rows, vals, p, pl.Survivors, pred)
}

// filterFactNumericBacked is the segment-paged form of the fact-column
// numeric filter: the sorted row set is walked segment by segment
// through a cursor, and any segment whose zone map cannot overlap
// [lo, hi] is dropped wholesale — its rows never page in. The output is
// exactly the dense path's (pred only accepts values inside the bound,
// and NULL is NaN either way).
func (ex *Executor) filterFactNumericBacked(ctx context.Context, rows []int, col string, lo, hi float64, pred func(float64) bool) ([]int, error) {
	b := ex.fact.Backing()
	ss := b.SegmentSize()
	cur := relation.NewFloatCursor(ex.fact.FloatReader(col))
	var out []int
	done := ctx.Done()
	skippedZone := 0
	i := 0
	for i < len(rows) {
		if done != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		si := rows[i] / ss
		segEnd := (si + 1) * ss
		if ov, has := b.SegmentZoneOverlaps(col, si, lo, hi); has && !ov {
			skippedZone++
			for i < len(rows) && rows[i] < segEnd {
				i++
			}
			continue
		}
		for i < len(rows) && rows[i] < segEnd {
			v := cur.At(rows[i])
			if !math.IsNaN(v) && pred(v) {
				out = append(out, rows[i])
			}
			i++
		}
	}
	b.NoteSkips(0, skippedZone)
	return out, nil
}

// FilterRowsNumericBoundCtx is FilterRowsNumericCtx with a declared
// bound interval: pred only accepts values in [lo, hi], which licenses
// skipping shards whose per-(path,attr) zone map misses the interval.
// The zone maps over the fact-aligned attribute column are built lazily
// on first use per partition and memoized alongside the column itself.
func (ex *Executor) FilterRowsNumericBoundCtx(ctx context.Context, rows []int, attr string, path schemagraph.JoinPath, lo, hi float64, pred func(float64) bool) ([]int, error) {
	if ex.g.DB().Table(path.Source).Schema().ColumnIndex(attr) < 0 {
		panic("olap: " + path.Source + " has no column " + attr)
	}
	vals := ex.attrFloats(attr, path)
	p := ex.partition.Load()
	if p == nil || len(rows) == 0 {
		return filterByVals(ctx, rows, vals, pred)
	}
	_, sp := telemetry.StartSpan(ctx, "shard_scan")
	defer sp.End()
	zones := ex.attrShardZones(attr, path, vals, p)
	pl := planZones(zones, p, lo, hi)
	ex.noteShardPlan(ctx, pl)
	return ex.filterGather(ctx, rows, vals, p, pl.Survivors, pred)
}

// planZones is the planner for fact-aligned dimension-attribute
// columns: survivors are the shards whose lazy zone map overlaps
// [lo, hi].
func planZones(zones []shard.ZoneMap, p *shard.Partition, lo, hi float64) shard.Plan {
	pl := shard.Plan{Survivors: make([]int, 0, len(zones))}
	for i, z := range zones {
		sh := p.Shards()[i]
		if sh.Lo >= sh.Hi {
			continue
		}
		if !z.Overlaps(lo, hi) {
			pl.PrunedZone++
			continue
		}
		pl.Survivors = append(pl.Survivors, i)
	}
	return pl
}

// attrZones is one memoized per-shard zone slice plus the row count it
// covers. SetShards clears the memo outright; Partition.Extend preserves
// every shard boundary except the last Hi, so an entry left short by a
// streaming append is brought up to date by folding just the appended
// rows — which all land in the last shard — into a copy of its zone.
type attrZones struct {
	zones []shard.ZoneMap
	upTo  int
}

// attrShardZones returns, memoized per partition lineage, the per-shard
// min/max of a fact-aligned attribute column, covering at least
// p.NumRows() rows.
func (ex *Executor) attrShardZones(attr string, path schemagraph.JoinPath, vals []float64, p *shard.Partition) []shard.ZoneMap {
	n := p.NumRows()
	key := attrColKey{path.Signature(), attr}
	ex.mu.RLock()
	e := ex.attrZone[key]
	ex.mu.RUnlock()
	if e != nil && e.upTo >= n {
		return e.zones
	}
	ex.mu.Lock()
	defer ex.mu.Unlock()
	e = ex.attrZone[key]
	if e != nil && e.upTo >= n {
		return e.zones
	}
	if e == nil {
		e = &attrZones{zones: shard.ZonesOver(vals, p), upTo: n}
		ex.attrZone[key] = e
		return e.zones
	}
	zones := append([]shard.ZoneMap(nil), e.zones...)
	last := &zones[len(zones)-1]
	for r := e.upTo; r < n && r < len(vals); r++ {
		last.Observe(vals[r])
	}
	e = &attrZones{zones: zones, upTo: n}
	ex.attrZone[key] = e
	return e.zones
}

// filterByVals is the monolithic vectorized filter: one pass over the
// row set against a dense float column.
func filterByVals(ctx context.Context, rows []int, vals []float64, pred func(float64) bool) ([]int, error) {
	var out []int
	done := ctx.Done()
	for base := 0; base < len(rows); base += cancelCheckRows {
		if done != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		end := min(base+cancelCheckRows, len(rows))
		for _, r := range rows[base:end] {
			v := vals[r]
			if !math.IsNaN(v) && pred(v) {
				out = append(out, r)
			}
		}
	}
	return out, nil
}

// filterGather scans the surviving shards' row spans and concatenates
// matches in shard order. Large scans fan the survivors out across
// workers; since each shard's matches are exact row IDs, the gathered
// result is identical to the serial scan.
func (ex *Executor) filterGather(ctx context.Context, rows []int, vals []float64, p *shard.Partition, survivors []int, pred func(float64) bool) ([]int, error) {
	spans := shardSpans(rows, p, survivors)
	total := 0
	for _, sp := range spans {
		total += len(sp)
	}
	if total < ParallelRowThreshold() || len(spans) < 2 {
		ex.stats.serialScans.Add(1)
		profile.FromContext(ctx).AddKernelScan(false, 0, total)
		var out []int
		for _, span := range spans {
			matched, err := filterByVals(ctx, span, vals, pred)
			if err != nil {
				return nil, err
			}
			out = append(out, matched...)
		}
		return out, nil
	}
	ex.stats.parallelScans.Add(1)
	ex.stats.kernelChunks.Add(int64(len(spans)))
	profile.FromContext(ctx).AddKernelScan(true, len(spans), total)
	outs := make([][]int, len(spans))
	errs := make([]error, len(spans))
	var wg sync.WaitGroup
	sem := make(chan struct{}, kernelStripes)
	for i, span := range spans {
		if len(span) == 0 {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, span []int) {
			defer wg.Done()
			defer func() { <-sem }()
			outs[i], errs[i] = filterByVals(ctx, span, vals, pred)
		}(i, span)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var out []int
	for _, o := range outs {
		out = append(out, o...)
	}
	return out, nil
}

// shardSpans slices the sorted row set into the per-survivor subsets by
// binary-searching the shard boundaries. Rows in pruned shards are
// dropped here — that is the scatter step's whole point.
func shardSpans(rows []int, p *shard.Partition, survivors []int) [][]int {
	spans := make([][]int, 0, len(survivors))
	cur := 0
	for _, si := range survivors {
		sh := p.Shards()[si]
		lo := cur + sort.SearchInts(rows[cur:], sh.Lo)
		hi := lo + sort.SearchInts(rows[lo:], sh.Hi)
		spans = append(spans, rows[lo:hi])
		cur = hi
	}
	return spans
}

// numericSeriesSharded extracts the series shard by shard: shards whose
// attribute zone is empty (every value NULL/unlinked) are pruned, the
// rest scan in parallel, and per-shard outputs concatenate in shard
// order — identical to the monolithic pass.
func (ex *Executor) numericSeriesSharded(ctx context.Context, p *shard.Partition, rows []int, attr string, path schemagraph.JoinPath, m Measure) ([]ValueMeasure, error) {
	vals := ex.attrFloats(attr, path)
	vec := measureVec(m)
	_, sp := telemetry.StartSpan(ctx, "shard_scan")
	defer sp.End()
	zones := ex.attrShardZones(attr, path, vals, p)
	pl := planZones(zones, p, negInf, posInf)
	ex.noteShardPlan(ctx, pl)
	spans := shardSpans(rows, p, pl.Survivors)
	outs := make([][]ValueMeasure, len(spans))
	errs := make([]error, len(spans))
	var wg sync.WaitGroup
	sem := make(chan struct{}, kernelStripes)
	for i, span := range spans {
		if len(span) == 0 {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, span []int) {
			defer wg.Done()
			defer func() { <-sem }()
			outs[i], errs[i] = seriesOver(ctx, span, vals, vec, m, ex.fact)
		}(i, span)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := make([]ValueMeasure, 0, len(rows))
	for _, o := range outs {
		out = append(out, o...)
	}
	return out, nil
}
