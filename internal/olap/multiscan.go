package olap

import (
	"fmt"
	"sort"

	"context"

	"kdap/internal/relation"
	"kdap/internal/schemagraph"
	"kdap/internal/telemetry/profile"
)

// The multi-row-set fused scan: one pass over a shared attribute code
// column and measure vector evaluates several row sets at once. The
// explore pipeline always needs the same group-by over the local
// subspace and over every roll-up background space — overlapping row
// sets against identical columns — and the batch scheduler collects
// the same shape across concurrent requests. Fusing them walks the
// shared columns once, front to back, instead of once per row set.
//
// Determinism contract: the result for each row set is byte-identical
// to a solo GroupByCtx over that set. Each set keeps its own canonical
// stripe layout (the same serial-or-striped decision and the same
// stripe spans a solo scan would use), each stripe partial accumulates
// over the same contiguous rows in the same order, and partials merge
// in stripe-index order. Fusing only changes when each stripe runs,
// never what it computes or how partials combine.

// mtask is one stripe of one row set in a fused multi-scan.
type mtask struct {
	set    int
	stripe int
	rows   []int
}

// GroupByMultiCtx runs GroupByCtx over each row set in one fused pass
// against the shared columns, returning one result map per input set
// (position-matched; an empty set yields an empty map). Results are
// byte-identical to len(rowSets) solo GroupByCtx calls.
func (ex *Executor) GroupByMultiCtx(ctx context.Context, rowSets [][]int, attr string, path schemagraph.JoinPath, m Measure, agg Agg) ([]map[relation.Value]float64, error) {
	if len(rowSets) == 0 {
		return nil, nil
	}
	dimTable := ex.g.DB().Table(path.Source)
	if dimTable.Schema().ColumnIndex(attr) < 0 {
		panic(fmt.Sprintf("olap: %s has no column %q", path.Source, attr))
	}
	if measureVec(m) != nil {
		ex.stats.groupByVec.Add(int64(len(rowSets)))
	} else {
		ex.stats.groupByEval.Add(int64(len(rowSets)))
	}
	ex.stats.multiScans.Add(1)
	ex.stats.multiRowSets.Add(int64(len(rowSets)))
	codes, dict := ex.attrCodes(attr, path)
	ngroups := len(dict)
	threshold := ParallelRowThreshold()

	// Lay out every set's canonical stripe grid, then order the stripe
	// tasks by starting fact row: the fused pass walks the shared code
	// and measure columns roughly front to back across all sets, so a
	// column region is hot while every set that touches it consumes it.
	stripesOf := make([]int, len(rowSets))
	var tasks []mtask
	total := 0
	for k, rows := range rowSets {
		total += len(rows)
		if len(rows) == 0 {
			continue
		}
		if len(rows) < threshold {
			stripesOf[k] = 1
			tasks = append(tasks, mtask{set: k, stripe: 0, rows: rows})
			continue
		}
		spans := stripeSpans(len(rows))
		stripesOf[k] = len(spans)
		for si, sp := range spans {
			tasks = append(tasks, mtask{set: k, stripe: si, rows: rows[sp.lo:sp.hi]})
		}
	}
	sort.SliceStable(tasks, func(i, j int) bool { return tasks[i].rows[0] < tasks[j].rows[0] })

	workers := 1
	if total >= threshold {
		workers = scanWorkers()
	}
	states := make([][][]aggState, len(rowSets))
	touched := make([][][]bool, len(rowSets))
	for k, ns := range stripesOf {
		states[k] = make([][]aggState, ns)
		touched[k] = make([][]bool, ns)
	}
	// Per-set scan accounting mirrors the solo kernels, so the
	// serial/parallel counters — and the per-request wide event — stay
	// comparable whether or not calls were fused.
	prof := profile.FromContext(ctx)
	for k, ns := range stripesOf {
		switch {
		case ns == 0:
		case ns == 1 || workers == 1:
			ex.stats.serialScans.Add(1)
			prof.AddKernelScan(false, 0, len(rowSets[k]))
		default:
			ex.stats.parallelScans.Add(1)
			ex.stats.kernelChunks.Add(int64(ns))
			prof.AddKernelScan(true, ns, len(rowSets[k]))
		}
	}
	errs := make([]error, len(tasks))
	runStripes(len(tasks), workers, func(i int) {
		t := tasks[i]
		states[t.set][t.stripe], touched[t.set][t.stripe], errs[i] = ex.groupScanChunk(ctx, t.rows, codes, ngroups, m, agg)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	out := make([]map[relation.Value]float64, len(rowSets))
	for k := range rowSets {
		if stripesOf[k] == 0 {
			out[k] = make(map[relation.Value]float64)
			continue
		}
		st, tc := states[k][0], touched[k][0]
		for w := 1; w < stripesOf[k]; w++ {
			for g := range st {
				if touched[k][w][g] {
					tc[g] = true
					st[g].mergeInto(&states[k][w][g])
				}
			}
		}
		res := make(map[relation.Value]float64, ngroups)
		for c := range st {
			if tc[c] {
				res[dict[c]] = st[c].final(agg)
			}
		}
		out[k] = res
	}
	return out, nil
}
