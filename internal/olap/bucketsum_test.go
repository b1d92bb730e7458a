package olap

import (
	"context"
	"errors"
	"math"
	"slices"
	"sort"
	"testing"

	"kdap/internal/relation"
	"kdap/internal/schemagraph"
)

// refBucketIndex is the bucketizer's original binary-search definition
// of bucket membership, kept here as the oracle for BucketIndex. A NaN
// value is in no bucket.
func refBucketIndex(edges []float64, v float64) int {
	n := len(edges) - 1
	if n <= 0 || math.IsNaN(v) || v < edges[0] || v > edges[n] {
		return -1
	}
	if v == edges[n] {
		return n - 1
	}
	i := sort.SearchFloat64s(edges, v)
	if i < len(edges) && edges[i] == v {
		return i
	}
	return i - 1
}

// refBucketSums buckets a materialized series the way the bucketizer's
// AggregateSeries does: in series order, dropping out-of-domain values.
func refBucketSums(series []ValueMeasure, edges []float64) []float64 {
	out := make([]float64, max(len(edges)-1, 0))
	for _, vm := range series {
		if b := refBucketIndex(edges, vm.Value); b >= 0 {
			out[b] += vm.Measure
		}
	}
	return out
}

// priceWarehouse is a one-dimension star whose numeric attribute hits
// chosen values: Item.Price takes 0, 10, 20, 25, 40, 50, -5, the
// subnormal 5e-311 and NULL,
// and a fact row may dangle, carry a NULL key, or a NULL (NaN) amount.
func priceWarehouse(t *testing.T) (*Executor, schemagraph.JoinPath, *relation.Table) {
	t.Helper()
	db := relation.NewDatabase("prices")
	item := db.MustCreateTable(relation.MustSchema("Item", []relation.Column{
		{Name: "ItemKey", Kind: relation.KindInt},
		{Name: "Price", Kind: relation.KindFloat},
	}, "ItemKey", nil))
	fact := db.MustCreateTable(relation.MustSchema("Fact", []relation.Column{
		{Name: "FactKey", Kind: relation.KindInt},
		{Name: "ItemKey", Kind: relation.KindInt},
		{Name: "Amount", Kind: relation.KindFloat},
	}, "FactKey", []relation.ForeignKey{{Column: "ItemKey", RefTable: "Item", RefColumn: "ItemKey"}}))
	prices := []relation.Value{
		relation.Float(0), relation.Float(10), relation.Float(20), relation.Float(25),
		relation.Float(40), relation.Null(), relation.Float(-5), relation.Float(50),
		relation.Float(5e-311),
	}
	for i, p := range prices {
		item.MustAppend(relation.Int(int64(i+1)), p)
	}
	for f := 0; f < 200; f++ {
		key := relation.Int(int64(f%len(prices) + 1))
		switch f % 37 {
		case 5:
			key = relation.Int(999) // dangling
		case 11:
			key = relation.Null()
		}
		amount := relation.Float(0.1 * float64(f*f%97))
		if f == 39 { // Price 25
			amount = relation.Null() // NaN measure
		}
		fact.MustAppend(relation.Int(int64(f)), key, amount)
	}
	g := schemagraph.New(db, "Fact")
	if err := g.AddDimension(&schemagraph.Dimension{
		Name: "Item", Tables: []string{"Item"},
		GroupBy: []schemagraph.AttrRef{{Table: "Item", Attr: "Price"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := g.Build(); err != nil {
		t.Fatal(err)
	}
	path, ok := g.PathFromFact("Item", "Item")
	if !ok {
		t.Fatal("no path to Item")
	}
	return NewExecutor(g), path, fact
}

// sameFloats compares bit for bit, so a NaN bucket must be NaN on both
// sides and a last-bit difference fails.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestBucketSumsMatchesBucketedSeries(t *testing.T) {
	ex, path, fact := priceWarehouse(t)
	col := ColumnMeasure(fact, "Amount")
	measures := map[string]Measure{
		"vector":  col,
		"segment": {Name: "seg", Eval: col.Eval, Seg: col.Seg},
		"eval":    {Name: "eval", Eval: col.Eval},
		"count":   CountMeasure(),
	}
	all := ex.FactRows(nil)
	var noNaNMeasure, everyThird []int
	for _, r := range all {
		if r != 39 {
			noNaNMeasure = append(noNaNMeasure, r)
		}
		if r%3 == 0 {
			everyThird = append(everyThird, r)
		}
	}
	rowSets := map[string][]int{
		"all":            all,
		"no NaN measure": noNaNMeasure,
		"every third":    everyThird,
		"none":           nil,
	}
	edgeSets := map[string][]float64{
		"value on each edge": {0, 10, 20, 25, 40, 50},
		"equal width":        {-5, 6, 17, 28, 39, 50},
		"outside domain":     {10, 20, 30},
		"degenerate":         {20, 20},
		"repeated edges":     {0, 10, 10, 10, 50},
		"uneven":             {-5, 0, 1, 49, 50},
		"subnormal width":    {0, 1e-310, 2e-310},
		"one edge":           {10},
		"no edges":           nil,
	}
	for mname, m := range measures {
		for rname, rows := range rowSets {
			series := ex.NumericSeries(rows, "Price", path, m)
			for ename, edges := range edgeSets {
				got, err := ex.BucketSumsCtx(context.Background(), rows, "Price", path, m, edges)
				if err != nil {
					t.Fatal(err)
				}
				if want := refBucketSums(series, edges); !sameFloats(got, want) {
					t.Errorf("%s measure, %s rows, %s: got %v, want %v", mname, rname, ename, got, want)
				}
			}
		}
	}
	// The fixture must exercise what the cases are named for.
	sums, _ := ex.BucketSumsCtx(context.Background(), all, "Price", path, col, edgeSets["value on each edge"])
	if !slices.ContainsFunc(sums, math.IsNaN) {
		t.Error("fixture: the NaN measure reached no bucket")
	}
	if len(ex.NumericSeries(all, "Price", path, col)) >= len(all) {
		t.Error("fixture: no row has a NaN attribute")
	}
}

func TestBucketSumsCancelled(t *testing.T) {
	ex, path, fact := priceWarehouse(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ex.BucketSumsCtx(ctx, ex.FactRows(nil), "Price", path, ColumnMeasure(fact, "Amount"), []float64{0, 25, 50})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// FuzzBucketIndex holds BucketIndex to the sort.SearchFloat64s reference
// and the kernel's arithmetic guess to BucketIndex, over equal-width
// edges built the way the bucketizer builds them (lo, hi, n) and over
// arbitrary sorted edges decoded from raw, probing v itself plus every
// edge and its float neighbours.
func FuzzBucketIndex(f *testing.F) {
	f.Add(0.0, 100.0, uint8(40), 37.5, []byte{})
	f.Add(-5.0, 50.0, uint8(5), 50.0, []byte{0, 0, 0, 0, 0, 0, 0x24, 0x40})
	f.Add(1e16, 1e16+8, uint8(40), 1e16+4, []byte{})
	f.Add(20.0, 20.0, uint8(1), 20.0, []byte{})
	f.Fuzz(func(t *testing.T, lo, hi float64, n uint8, v float64, raw []byte) {
		check := func(edges []float64, v float64) {
			want := refBucketIndex(edges, v)
			if got := BucketIndex(edges, v); got != want {
				t.Fatalf("BucketIndex(%v, %v) = %d, want %d", edges, v, got, want)
			}
			b := newBucketer(edges)
			if got := b.index(v); got != want {
				t.Fatalf("bucketer(%v).index(%v) = %d, want %d", edges, v, got, want)
			}
		}
		probe := func(edges []float64) {
			check(edges, v)
			for _, e := range edges {
				check(edges, e)
				check(edges, math.Nextafter(e, math.Inf(-1)))
				check(edges, math.Nextafter(e, math.Inf(1)))
			}
		}
		if !math.IsNaN(lo) && !math.IsNaN(hi) && n > 0 {
			if lo > hi {
				lo, hi = hi, lo
			}
			probe(equalWidthEdges(lo, hi, int(n)))
		}
		var edges []float64
		for i := 0; i+8 <= len(raw) && len(edges) < 64; i += 8 {
			var bits uint64
			for k := 7; k >= 0; k-- {
				bits = bits<<8 | uint64(raw[i+k])
			}
			if e := math.Float64frombits(bits); !math.IsNaN(e) {
				edges = append(edges, e)
			}
		}
		sort.Float64s(edges)
		probe(edges)
	})
}

// equalWidthEdges mirrors the bucketizer's MakeIntervals edge layout.
func equalWidthEdges(lo, hi float64, n int) []float64 {
	if lo == hi {
		return []float64{lo, hi}
	}
	edges := make([]float64, n+1)
	w := (hi - lo) / float64(n)
	for i := 0; i <= n; i++ {
		edges[i] = lo + float64(i)*w
	}
	edges[n] = hi
	return edges
}
