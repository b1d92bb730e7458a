package olap

import (
	"context"
	"slices"
	"sort"
	"testing"

	"kdap/internal/dataset"
	"kdap/internal/relation"
)

// A constraint semijoin that started before a streaming append must
// build its bitset over the fact length it observed, even when the hop
// lookups already see the appended rows. Replays that interleaving
// deterministically: append first, then build at the pre-append length.
// The set must hold exactly the pre-append members, and the next read
// must extend it to the from-scratch answer.
func TestConstraintSetClipsRowsAppendedMidBuild(t *testing.T) {
	const scale, resident = 4000, 3000
	wh, tail := dataset.AWOnlineScaledPartial(scale, resident)
	fact := wh.DB.Table(wh.Graph.FactTable())
	path, ok := wh.Graph.PathFromFact("DimProductSubcategory", "Product")
	if !ok {
		t.Fatal("no path to DimProductSubcategory")
	}
	c := Constraint{Table: "DimProductSubcategory", Attr: "SubcategoryName",
		Values: []relation.Value{relation.String("Road Bikes")}, Path: path}

	ex := NewExecutor(wh.Graph)
	n0 := fact.Len()
	if _, err := fact.AppendFacts(tail); err != nil {
		t.Fatal(err)
	}

	s, err := ex.buildConstraintSet(context.Background(), c, n0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != n0 {
		t.Fatalf("universe %d, want the snapshot length %d", s.Len(), n0)
	}

	want := NewExecutor(dataset.AWOnlineScaled(scale).Graph).FactRows([]Constraint{c})
	if len(want) == 0 || want[len(want)-1] < n0 {
		t.Fatal("fixture: Road Bikes needs members in the appended tail")
	}
	prefix := want[:sort.SearchInts(want, n0)]
	if got := s.ToSlice(); !slices.Equal(got, prefix) {
		t.Fatalf("snapshot set has %d rows, want the %d pre-append members", len(got), len(prefix))
	}

	ex.constraintBits.Put(constraintSig(c), s)
	if got := ex.FactRows([]Constraint{c}); !slices.Equal(got, want) {
		t.Fatalf("extended set has %d rows, from-scratch %d", len(got), len(want))
	}
}
