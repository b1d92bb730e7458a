package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kdap/internal/dataset"
	"kdap/internal/relation"
	"kdap/internal/server"
	"kdap/internal/workload"
)

// session is one generated user session: query, explore one pick, and on
// explore_fresh drill into one facet instance and explore again.
type session struct {
	DB, Q string
	Pick  int
	Mode  string
	Drill bool
	R     uint32 // selects the drilled instance among the answer's candidates
	INM   bool   // revalidate the explore with If-None-Match when an ETag is held
}

// table3 returns the Table-3 query texts of a warehouse.
func table3(db string) []string {
	qs := workload.AWOnlineQueries()
	if db == "reseller" {
		qs = workload.AWResellerQueries()
	}
	out := make([]string, len(qs))
	for i, q := range qs {
		out[i] = q.Text
	}
	return out
}

// coldSessions are the Table-3 query→explore(top pick) sessions every run
// starts with on its fresh server.
func coldSessions(dbs []string) []session {
	var out []session
	for _, db := range dbs {
		for _, q := range table3(db) {
			out = append(out, session{DB: db, Q: q, Pick: 1, Mode: "surprise"})
		}
	}
	return out
}

// The traffic-mix shares below are assumptions of the benchmark, not
// measurements: no KDAP usage log gives them. Each run prints the explore
// p50 of each class (workloadProperties), so the effect of a share on
// explore_p50_ms can be read off any run.
const (
	// freshBellwetherShare and repeatBellwetherShare are the shares of
	// sessions that explore in bellwether mode.
	freshBellwetherShare  = 0.3
	repeatBellwetherShare = 0.2
	// revalidateShare is the share of explore_repeat explores that send
	// If-None-Match when the client holds an ETag for the answer.
	revalidateShare = 0.3
	// repeatZipfExponent skews explore_repeat's query popularity: the
	// exponent cmd/kdapbench's qps ladder uses, after search-log fits.
	repeatZipfExponent = 1.4
	// freshSessionsPerSec sizes explore_fresh's session list per second
	// of timed phase: over 3 times what 2 clients complete on a 2-core
	// machine (about 55 a second at best), so the list outlasts the run.
	// It is not larger because a longer list drops more shapes (see
	// freshSessions): at this size a 20 s run's list drops the same 4
	// shapes for every seed tried, with a margin of about 15% on either
	// side, and at 250 a fifth shape ran out for 2 seeds in 20.
	freshSessionsPerSec = 180
	// repeatSessionsPerSec does the same for explore_repeat, whose
	// sessions complete at about 3,500 a second.
	repeatSessionsPerSec = 16_000
	// maxTable3Fresh caps explore_fresh's Table-3 sessions: the 50
	// queries give 250 (query, pick, mode) triples besides the cold pass's
	// own, and the draw must not run out of them.
	maxTable3Fresh = 200
)

func pickMode(rng *rand.Rand, bellwetherShare float64) string {
	if rng.Float64() < bellwetherShare {
		return "bellwether"
	}
	return "surprise"
}

// freshSessions draws n explore_fresh sessions with no (query, pick, mode)
// repeated, none repeating a cold-pass session. Evenly spread through the
// list, up to maxTable3Fresh of them come from Table 3; the rest are
// keyword combinations sampled from the warehouse's indexed attribute
// values. The combinations are stratified: each block of them covers
// every shape (subset of the fact's foreign-key branches) once, in a
// seeded order, so runs with different seeds explore the same mix of
// shapes and differ only in the values drawn. A shape with too few
// distinct combinations to last the whole list is left out of it
// altogether, so the mix is the same in every prefix of the list, however
// far a run gets.
func freshSessions(rng *rand.Rand, wh *dataset.Warehouse, n int) []session {
	sampler := newComboSampler(wh)
	shapes := sampler.shapes()
	drawSeed := rng.Int63()
	for {
		out, short := drawFresh(rand.New(rand.NewSource(drawSeed)), sampler, shapes, n)
		if short == nil {
			return out
		}
		var kept [][]int
		for _, sh := range shapes {
			if !slices.Equal(sh, short) {
				kept = append(kept, sh)
			}
		}
		fmt.Printf("property fresh_shape_dropped %s (ran out of distinct sessions after %d of %d)\n",
			sampler.shapeName(short), len(out), n)
		shapes = kept
	}
}

// drawFresh draws up to n sessions over shapes. It stops early and
// returns the first shape that ran out of distinct combinations.
func drawFresh(rng *rand.Rand, sampler *comboSampler, shapes [][]int, n int) ([]session, []int) {
	t3 := table3("online")
	seen := map[string]bool{}
	for _, q := range t3 {
		seen[q+"|1|surprise"] = true
	}
	t3Every := max(10, (n+maxTable3Fresh-1)/maxTable3Fresh)
	add := func(s session) bool {
		k := s.Q + "|" + strconv.Itoa(s.Pick) + "|" + s.Mode
		if seen[k] {
			return false
		}
		seen[k] = true
		return true
	}
	var block []int
	var out []session
	for len(out) < n {
		s := session{DB: "online", Pick: 1 + rng.Intn(3), Mode: pickMode(rng, freshBellwetherShare), Drill: true, R: rng.Uint32()}
		if len(out)%t3Every == t3Every-1 {
			for s.Q = t3[rng.Intn(len(t3))]; !add(s); s.Q = t3[rng.Intn(len(t3))] {
				s.Pick, s.Mode = 1+rng.Intn(3), pickMode(rng, freshBellwetherShare)
			}
			out = append(out, s)
			continue
		}
		if len(block) == 0 {
			block = rng.Perm(len(shapes))
		}
		shape := shapes[block[0]]
		block = block[1:]
		drew := false
		for tries := 0; tries < 50 && !drew; tries++ {
			s.Q = sampler.draw(rng, shape)
			drew = add(s)
			if !drew {
				s.Pick, s.Mode = 1+rng.Intn(3), pickMode(rng, freshBellwetherShare)
			}
		}
		if !drew {
			return out, shape
		}
		out = append(out, s)
	}
	return out, nil
}

// repeatSessions draws n explore_repeat sessions: zipf-skewed over the
// Table-3 queries of dbs (top pick), with a share of the explores
// revalidating with If-None-Match.
func repeatSessions(rng *rand.Rand, dbs []string, n int) []session {
	type qref struct{ db, q string }
	var pool []qref
	// Interleave the warehouses so both sit in the hot head of the zipf.
	lists := make([][]string, len(dbs))
	for i, db := range dbs {
		lists[i] = table3(db)
	}
	for i := 0; ; i++ {
		added := false
		for d, l := range lists {
			if i < len(l) {
				pool = append(pool, qref{dbs[d], l[i]})
				added = true
			}
		}
		if !added {
			break
		}
	}
	z := rand.NewZipf(rng, repeatZipfExponent, 1, uint64(len(pool)-1))
	out := make([]session, n)
	for i := range out {
		r := pool[z.Uint64()]
		out[i] = session{DB: r.db, Q: r.q, Pick: 1, Mode: pickMode(rng, repeatBellwetherShare), INM: rng.Float64() < revalidateShare}
	}
	return out
}

// comboSampler draws keyword queries that co-occur in the data: it picks
// a random fact row, follows its foreign keys, and joins the text of one
// indexed attribute from each of 1–3 foreign-key branches. It reads rows directly, so
// it builds none of the lazy indexes the served stack would use.
type comboSampler struct {
	fact     *relation.Table
	branches [][]attrPath // per fact foreign key: reachable indexed attributes
	fks      []string     // per branch: the fact's foreign-key column
}

type attrPath struct {
	hops []fkHop // from the fact row to the attribute's table
	col  int
}

type fkHop struct {
	fromCol int
	to      *relation.Table
	index   map[relation.Value]int // key value -> row
}

// comboAttrs lists the attributes keyword combinations are drawn from, by
// the fact foreign key they hang off. Per-customer identifiers (names,
// emails, phones) are left out: they pin single customers.
var comboAttrs = map[string][]string{
	"ProductKey": {"DimProduct.ModelName", "DimProduct.EnglishProductName", "DimProduct.Color",
		"DimProductSubcategory.SubcategoryName", "DimProductCategory.CategoryName"},
	"CustomerKey": {"DimGeography.City", "DimGeography.StateProvinceName", "DimGeography.CountryRegionName",
		"DimCustomer.Occupation", "DimCustomer.Education", "DimSalesTerritory.TerritoryGroup"},
	"OrderDateKey": {"DimDate.MonthName", "DimDate.CalendarYear", "DimDate.DayName"},
	"PromotionKey": {"DimPromotion.EnglishPromotionName"},
	"CurrencyKey":  {"DimCurrency.CurrencyName"},
}

func newComboSampler(wh *dataset.Warehouse) *comboSampler {
	fact := wh.DB.Table(wh.Graph.FactTable())
	s := &comboSampler{fact: fact}
	indexes := map[string]map[relation.Value]int{}
	keyIndex := func(t *relation.Table, col string) map[relation.Value]int {
		k := t.Name() + "." + col
		if m, ok := indexes[k]; ok {
			return m
		}
		ci := t.Schema().ColumnIndex(col)
		m := make(map[relation.Value]int, t.Len())
		for i := 0; i < t.Len(); i++ {
			m[t.Row(i)[ci]] = i
		}
		indexes[k] = m
		return m
	}
	// walk collects every wanted attribute reachable from table t.
	var walk func(t *relation.Table, hops []fkHop, want map[string]bool, out *[]attrPath)
	walk = func(t *relation.Table, hops []fkHop, want map[string]bool, out *[]attrPath) {
		for ci, c := range t.Schema().Columns {
			if want[t.Name()+"."+c.Name] {
				*out = append(*out, attrPath{hops: hops, col: ci})
			}
		}
		for _, fk := range t.Schema().ForeignKeys {
			to := wh.DB.Table(fk.RefTable)
			h := fkHop{fromCol: t.Schema().ColumnIndex(fk.Column), to: to, index: keyIndex(to, fk.RefColumn)}
			walk(to, append(append([]fkHop(nil), hops...), h), want, out)
		}
	}
	fks := append([]relation.ForeignKey(nil), fact.Schema().ForeignKeys...)
	sort.Slice(fks, func(i, j int) bool { return fks[i].Column < fks[j].Column })
	for _, fk := range fks {
		want := map[string]bool{}
		for _, a := range comboAttrs[fk.Column] {
			want[a] = true
		}
		to := wh.DB.Table(fk.RefTable)
		h := fkHop{fromCol: fact.Schema().ColumnIndex(fk.Column), to: to, index: keyIndex(to, fk.RefColumn)}
		var paths []attrPath
		walk(to, []fkHop{h}, want, &paths)
		if len(paths) > 0 {
			s.branches = append(s.branches, paths)
			s.fks = append(s.fks, fk.Column)
		}
	}
	return s
}

// shapes lists every non-empty subset of at most 3 branches.
func (s *comboSampler) shapes() [][]int {
	var out [][]int
	for mask := 1; mask < 1<<len(s.branches); mask++ {
		var shape []int
		for b := range s.branches {
			if mask&(1<<b) != 0 {
				shape = append(shape, b)
			}
		}
		if len(shape) <= 3 {
			out = append(out, shape)
		}
	}
	return out
}

// shapeName names a shape by the foreign keys of its branches.
func (s *comboSampler) shapeName(shape []int) string {
	names := make([]string, len(shape))
	for i, b := range shape {
		names[i] = s.fks[b]
	}
	return strings.Join(names, "+")
}

// draw joins one attribute value from each branch of shape, read off a
// random fact row.
func (s *comboSampler) draw(rng *rand.Rand, shape []int) string {
	row := s.fact.Row(rng.Intn(s.fact.Len()))
	var words []string
	for _, bi := range shape {
		ap := s.branches[bi][rng.Intn(len(s.branches[bi]))]
		cur := row
		for _, h := range ap.hops {
			cur = h.to.Row(h.index[cur[h.fromCol]])
		}
		if txt := cur[ap.col].Text(); txt != "" {
			words = append(words, txt)
		}
	}
	return strings.Join(words, " ")
}

// runSession plays one session through c. Every request of a traced
// session carries a request id.
func (c *client) runSession(s session, phase string, traced bool) {
	qc := &call{Phase: phase, Op: "query", DB: s.DB, Q: s.Q}
	body, _ := c.post(qc, "/api/query", mustJSON(map[string]string{"db": s.DB, "q": s.Q}), traced)
	if body == nil {
		return
	}
	var qr server.QueryResponse
	if json.Unmarshal(body, &qr) != nil || len(qr.Interpretations) == 0 {
		return
	}
	pick := min(s.Pick, len(qr.Interpretations))
	ec := &call{Phase: phase, Op: "explore", DB: s.DB, Q: s.Q, Pick: pick, Mode: s.Mode, INM: s.INM}
	body, _ = c.post(ec, "/api/explore", mustJSON(map[string]any{"session": qr.Session, "pick": pick, "mode": s.Mode}), traced)
	if body == nil || !s.Drill {
		return
	}
	var f server.FacetsDTO
	if json.Unmarshal(body, &f) != nil {
		return
	}
	d := chooseDrill(&f, s.R)
	if d == nil {
		return
	}
	dc := &call{Phase: phase, Op: "drill", DB: s.DB, Q: s.Q, Pick: pick, Mode: s.Mode, Drill: d}
	body, _ = c.post(dc, "/api/drill", mustJSON(map[string]any{
		"session": qr.Session, "pick": pick, "table": d.Table, "attr": d.Attr, "role": d.Role, "value": d.Value}), traced)
	if body == nil {
		return
	}
	var dr struct{ Session string }
	if json.Unmarshal(body, &dr) != nil {
		return
	}
	ec2 := &call{Phase: phase, Op: "explore", DB: s.DB, Q: s.Q, Pick: pick, Mode: s.Mode, Drill: d}
	c.post(ec2, "/api/explore", mustJSON(map[string]any{"session": dr.Session, "pick": 1, "mode": s.Mode}), traced)
}

// chooseDrill picks one categorical facet instance of an answer.
func chooseDrill(f *server.FacetsDTO, r uint32) *drillSpec {
	var cands []drillSpec
	for _, d := range f.Dimensions {
		for _, a := range d.Attributes {
			if a.Numeric {
				continue
			}
			for _, in := range a.Instances {
				cands = append(cands, drillSpec{Table: a.Table, Attr: a.Attr, Role: a.Role, Value: in.Label})
			}
		}
	}
	if len(cands) == 0 {
		return nil
	}
	return &cands[int(r%uint32(len(cands)))]
}

// closedLoop runs nclients closed-loop clients over sessions until the
// deadline: each client takes the next session and plays it to the end
// before taking another. Every other session is traced when traceHalf is
// set, so the traced run can compare traced and untraced latencies. It
// returns the wall time from start to the last completion and how many
// sessions were taken.
func closedLoop(base string, rec *recorder, ids *atomic.Int64, sessions []session, nclients int,
	deadline time.Time, traceHalf bool) (time.Duration, int) {

	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	last := make([]time.Duration, nclients)
	for i := 0; i < nclients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := newClient(base, rec, ids)
			defer c.close()
			for time.Now().Before(deadline) {
				n := int(next.Add(1) - 1)
				if n >= len(sessions) {
					return
				}
				c.runSession(sessions[n], "timed", traceHalf && n%2 == 0)
				last[i] = time.Since(start)
			}
		}(i)
	}
	wg.Wait()
	return slices.Max(last), min(int(next.Load()), len(sessions))
}
