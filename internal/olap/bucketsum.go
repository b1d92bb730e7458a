package olap

import (
	"context"
	"fmt"
	"math"
	"sort"

	"kdap/internal/relation"
	"kdap/internal/schemagraph"
)

// BucketIndex returns the basic interval of the sorted edges that holds
// v, or -1 when v is NaN or outside [edges[0], edges[n]]. Bucket i covers
// [edges[i], edges[i+1]); the last bucket is also closed on the right, and
// a value equal to a run of repeated edges belongs to the first bucket
// of the run. This is the one definition of bucket membership, by binary
// search: the bucketizer's Intervals.Find calls it, and the fused
// BucketSumsCtx kernel falls back to it whenever its guess is not sure.
func BucketIndex(edges []float64, v float64) int {
	n := len(edges) - 1
	if n <= 0 || math.IsNaN(v) || v < edges[0] || v > edges[n] {
		return -1
	}
	if v == edges[n] {
		return n - 1
	}
	i := sort.SearchFloat64s(edges, v)
	if edges[i] == v {
		return i
	}
	return i - 1
}

// bucketer finds buckets arithmetically for BucketSumsCtx. For
// equal-width edges (what the bucketizer builds) the scaled offset of v
// lands on v's bucket unless v sits on or within rounding of an edge;
// the guess is checked against the edges, and anything it does not
// settle goes to BucketIndex, so the answer never depends on the
// arithmetic being exact.
type bucketer struct {
	edges []float64
	// The guess applies to lo < v < hi with scale = n / (hi - lo). Both
	// bounds stay +Inf, sending every value to BucketIndex, unless the
	// width and the scale are both positive and finite (a subnormal
	// width makes the scale overflow).
	lo, hi float64
	scale  float64
}

func newBucketer(edges []float64) bucketer {
	b := bucketer{edges: edges, lo: math.Inf(1), hi: math.Inf(1)}
	if n := len(edges) - 1; n > 0 {
		w := edges[n] - edges[0]
		if s := float64(n) / w; w > 0 && !math.IsInf(w, 1) && !math.IsInf(s, 1) {
			b.lo, b.hi = edges[0], edges[n]
			b.scale = s
		}
	}
	return b
}

// index is the per-row hot path: one guess, accepted when it is a
// bucket and v lies strictly inside it, where no other bucket can hold v.
func (b *bucketer) index(v float64) int {
	if v > b.lo && v < b.hi {
		i := int((v - b.lo) * b.scale)
		if e := b.edges; uint(i) < uint(len(e)-1) && e[i] < v && v < e[i+1] {
			return i
		}
	}
	return BucketIndex(b.edges, v)
}

// BucketSumsCtx sums the measure of the given fact rows per basic
// interval of the attribute reached via path. It returns exactly what
// bucketing NumericSeriesCtx's output would: rows with a NULL, non-
// numeric or unlinked attribute are skipped, values outside the edges
// are dropped, and NaN measures are summed (poisoning their bucket) —
// but it reads the memoized attribute column and the measure in one
// pass and never materializes the series. The pass is serial and adds
// in row order, the order the series would have been summed in; a
// striped pass would regroup the float additions and change the sums.
// The result has len(edges)-1 entries (none for fewer than two edges).
func (ex *Executor) BucketSumsCtx(ctx context.Context, rows []int, attr string, path schemagraph.JoinPath, m Measure, edges []float64) ([]float64, error) {
	if ex.g.DB().Table(path.Source).Schema().ColumnIndex(attr) < 0 {
		panic(fmt.Sprintf("olap: %s has no column %q", path.Source, attr))
	}
	b := newBucketer(edges)
	out := make([]float64, max(len(edges)-1, 0))
	if len(out) == 0 {
		return out, nil
	}
	vals := ex.attrFloats(attr, path)
	vec := measureVec(m)
	var cur *relation.FloatCursor
	if vec == nil && !m.constOne {
		cur = measureCursor(m)
	}
	done := ctx.Done()
	for base := 0; base < len(rows); base += cancelCheckRows {
		if done != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		end := min(base+cancelCheckRows, len(rows))
		// index is -1 for NaN, so absent attribute values drop out with
		// the out-of-domain ones.
		switch {
		case vec != nil:
			for _, r := range rows[base:end] {
				if i := b.index(vals[r]); i >= 0 {
					out[i] += vec[r]
				}
			}
		case m.constOne:
			for _, r := range rows[base:end] {
				if i := b.index(vals[r]); i >= 0 {
					out[i]++
				}
			}
		case cur != nil:
			for _, r := range rows[base:end] {
				if i := b.index(vals[r]); i >= 0 {
					out[i] += cur.At(r)
				}
			}
		default:
			for _, r := range rows[base:end] {
				if i := b.index(vals[r]); i >= 0 {
					out[i] += m.Eval(ex.fact.Row(r))
				}
			}
		}
	}
	return out, nil
}
