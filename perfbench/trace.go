package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"kdap/internal/fulltext"
	"kdap/internal/kdapcore"
	"kdap/internal/olap"
	"kdap/internal/relation"
	"kdap/internal/schemagraph"
	"kdap/internal/server"
)

// perLayer are the metrics the traced run's JSON line carries: the ones
// every workload measures. The server.drill.* metrics are printed on
// explore_fresh but left out of the line.
var perLayer = []string{
	"server.query.handler_ms_p50", "server.query.transport_ms_p50", "server.query.self_ms_p50", "server.query.resp_bytes_mean",
	"server.explore.handler_ms_p50", "server.explore.transport_ms_p50", "server.explore.self_ms_p50", "server.explore.resp_bytes_mean",
	"server.not_modified_frac",
	"cache.explore_hit_ratio", "cache.differentiate_hit_ratio", "cache.coalesced", "cache.evictions",
	"cache.rows_hit_ratio", "cache.constraint_hit_ratio",
	"kdapcore.differentiate_ms_p50", "kdapcore.differentiate_ms_p90", "kdapcore.explore_ms_p50", "kdapcore.explore_ms_p90",
	"kdapcore.explore_self_ms_p50", "kdapcore.nets_per_query",
	"fulltext.search_ms_p50", "fulltext.probes_per_query",
	"olap.semijoin_ms_p50", "olap.semijoin_ms_p90", "olap.groupby_ms_p50", "olap.series_ms_p50", "olap.aggregate_ms_p50",
	"olap.rows_per_explore", "olap.kernel_calls", "olap.parallel_scans", "olap.multi_scans",
	"relation.lazy_build_ms", "relation.code_vec_builds", "relation.float_col_builds",
	"runtime.cpu_ms_per_op", "runtime.gc_cycles", "runtime.gc_pause_ms", "runtime.alloc_mb_per_op",
	"trace_overhead_frac",
}

// maxReplayExplores caps the replay so the traced run stays well inside
// its time limit on explore_fresh, where every explore is distinct.
const maxReplayExplores = 300

// span is one timed interval. Spans of one request share Req; Parent
// names the span that caused this one. Times are nanoseconds from the
// run's epoch (replay spans: from the replay's own start).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Req    string `json:"req"`
}

// tracer records a span around Server.ServeHTTP for every traced request.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans map[string]span // request id -> handler span
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, spans: map[string]span{}}
}

func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if !strings.HasPrefix(id, "t") {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Since(t.epoch)
		h.ServeHTTP(w, r)
		end := time.Since(t.epoch)
		sp := span{Name: "server" + strings.TrimPrefix(r.URL.Path, "/api"), Start: int64(start), End: int64(end),
			ID: "h" + id, Parent: id, Req: id}
		sp.Name = strings.ReplaceAll(sp.Name, "/", ".")
		t.mu.Lock()
		t.spans[id] = sp
		t.mu.Unlock()
	})
}

func (t *tracer) handler(id string) (span, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sp, ok := t.spans[id]
	return sp, ok
}

func scrape(api *server.Server) promSnap {
	var b bytes.Buffer
	_ = api.Registry().WritePrometheus(&b) // writes to a bytes.Buffer
	return parseProm(b.String())
}

// replayItem is one recorded input the replay feeds through the layers.
type replayItem struct {
	Req   string     `json:"req"`
	Op    string     `json:"op"`
	DB    string     `json:"db"`
	Q     string     `json:"q"`
	Pick  int        `json:"pick"`
	Mode  string     `json:"mode"`
	Drill *drillSpec `json:"drill,omitempty"`
}

type replayInput struct {
	Workload string       `json:"workload"`
	Items    []replayItem `json:"items"`
}

type replayOutput struct {
	Spans    []span             `json:"spans"`
	EngineMs map[string]float64 `json:"engine_ms"` // answer key -> replayed engine call
	Metrics  map[string]float64 `json:"metrics"`
}

// replayInputs picks the traced requests' inputs in recorded order: each
// distinct query and explore once, up to maxReplayExplores explores.
func replayInputs(name string, rec *recorder) replayInput {
	calls := append([]*call(nil), rec.calls...)
	sort.SliceStable(calls, func(i, j int) bool { return calls[i].Start < calls[j].Start })
	in := replayInput{Workload: name}
	seen := map[string]bool{}
	explores := 0
	for _, c := range calls {
		if c.ID == "" || (c.Op != "query" && c.Op != "explore") || seen[c.key()] {
			continue
		}
		if c.Op == "explore" {
			if explores >= maxReplayExplores {
				continue
			}
			explores++
		}
		seen[c.key()] = true
		in.Items = append(in.Items, replayItem{Req: c.ID, Op: c.Op, DB: c.DB, Q: c.Q, Pick: c.Pick, Mode: c.Mode, Drill: c.Drill})
	}
	return in
}

// replayMain is the replay child: it builds the workload's warehouses
// fresh, makes uncached engines over them, feeds the recorded inputs
// serially through each layer's public functions and writes the spans
// and per-layer timings.
func replayMain(inPath, outPath string) error {
	raw, err := os.ReadFile(inPath)
	if err != nil {
		return err
	}
	var in replayInput
	if err := json.Unmarshal(raw, &in); err != nil {
		return fmt.Errorf("decode %s: %w", inPath, err)
	}
	engines := uncachedEngines(buildWarehouses(in.Workload))
	r := &replayer{epoch: time.Now(), engines: engines,
		nets: map[string][]*kdapcore.StarNet{}, samples: map[string][]float64{},
		out: replayOutput{EngineMs: map[string]float64{}, Metrics: map[string]float64{}}}
	before := map[string]olap.ExecStats{}
	for db, e := range engines {
		before[db] = e.Executor().Stats()
	}
	for _, it := range in.Items {
		if err := r.item(it); err != nil {
			return err
		}
	}
	var kernel, parallel, multi, codeVec, floatCol float64
	for db, e := range engines {
		a, s := before[db], e.Executor().Stats()
		kernel += float64(s.GroupByVec + s.GroupByEval + s.GroupByRef + s.AggregateVec + s.AggregateEval + s.AggregateRef -
			a.GroupByVec - a.GroupByEval - a.GroupByRef - a.AggregateVec - a.AggregateEval - a.AggregateRef)
		parallel += float64(s.ParallelScans - a.ParallelScans)
		multi += float64(s.MultiScans - a.MultiScans)
		codeVec += float64(s.CodeVecBuilds - a.CodeVecBuilds)
		floatCol += float64(s.FloatColBuilds - a.FloatColBuilds)
	}
	m, sm := r.out.Metrics, r.samples
	m["kdapcore.differentiate_ms_p50"] = pct(sm["differentiate"], 50)
	m["kdapcore.differentiate_ms_p90"] = pct(sm["differentiate"], 90)
	m["kdapcore.explore_ms_p50"] = pct(sm["explore"], 50)
	m["kdapcore.explore_ms_p90"] = pct(sm["explore"], 90)
	m["kdapcore.explore_self_ms_p50"] = pct(sm["explore_self"], 50)
	m["kdapcore.nets_per_query"] = mean(sm["nets"])
	m["fulltext.search_ms_p50"] = pct(sm["search"], 50)
	m["fulltext.probes_per_query"] = mean(sm["probes"])
	m["olap.semijoin_ms_p50"] = pct(sm["semijoin"], 50)
	m["olap.semijoin_ms_p90"] = pct(sm["semijoin"], 90)
	m["olap.groupby_ms_p50"] = pct(sm["groupby"], 50)
	m["olap.series_ms_p50"] = pct(sm["series"], 50)
	m["olap.aggregate_ms_p50"] = pct(sm["aggregate"], 50)
	m["olap.rows_per_explore"] = mean(sm["rows"])
	m["olap.kernel_calls"] = kernel
	m["olap.parallel_scans"] = parallel
	m["olap.multi_scans"] = multi
	m["relation.lazy_build_ms"] = r.lazyMs
	m["relation.code_vec_builds"] = codeVec
	m["relation.float_col_builds"] = floatCol
	m["replay.explores"] = float64(len(sm["explore"]))
	m["replay.queries"] = float64(len(sm["differentiate"]))
	enc, err := json.Marshal(r.out)
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, enc, 0o644)
}

type replayer struct {
	epoch   time.Time
	engines map[string]*kdapcore.Engine
	nets    map[string][]*kdapcore.StarNet
	samples map[string][]float64
	lazyMs  float64
	out     replayOutput
	nspan   int
}

// timed runs fn as a span under parent and records its milliseconds
// under sample (when non-empty).
func (r *replayer) timed(name, sample, parent, req string, fn func()) (float64, string) {
	r.nspan++
	id := fmt.Sprintf("p%d", r.nspan)
	start := time.Since(r.epoch)
	fn()
	end := time.Since(r.epoch)
	r.out.Spans = append(r.out.Spans, span{Name: name, Start: int64(start), End: int64(end), ID: id, Parent: parent, Req: req})
	ms := float64(end-start) / 1e6
	if sample != "" {
		r.samples[sample] = append(r.samples[sample], ms)
	}
	return ms, id
}

func (r *replayer) differentiate(it replayItem) ([]*kdapcore.StarNet, error) {
	k := it.DB + "|" + it.Q
	if nets, ok := r.nets[k]; ok {
		return nets, nil
	}
	nets, err := r.engines[it.DB].DifferentiateCtx(context.Background(), it.Q)
	if err == nil {
		r.nets[k] = nets
	}
	return nets, err
}

func (r *replayer) item(it replayItem) error {
	ctx := context.Background()
	e := r.engines[it.DB]
	switch it.Op {
	case "query":
		ix := e.Index()
		p0 := ix.ProbeCount()
		var nets []*kdapcore.StarNet
		var err error
		ms, id := r.timed("kdapcore.differentiate", "differentiate", it.Req, it.Req, func() {
			nets, err = e.DifferentiateCtx(ctx, it.Q)
		})
		r.samples["probes"] = append(r.samples["probes"], float64(ix.ProbeCount()-p0))
		r.out.EngineMs["query|"+it.DB+"|"+it.Q] = ms
		if err == nil {
			r.nets[it.DB+"|"+it.Q] = nets
			r.samples["nets"] = append(r.samples["nets"], float64(len(nets)))
		}
		for _, kw := range strings.Fields(it.Q) {
			r.timed("fulltext.search", "search", id, it.Req, func() {
				_, _ = ix.SearchCtx(ctx, kw, fulltext.Options{Prefix: true, Limit: 200}) // timed only
			})
		}
		return nil
	case "explore":
		nets, err := r.differentiate(it)
		if err != nil {
			return nil
		}
		nets = nets[:min(len(nets), queryLimit)]
		if it.Pick < 1 || it.Pick > len(nets) {
			return nil
		}
		sn := nets[it.Pick-1]
		if d := it.Drill; d != nil {
			if sn, err = e.Drill(sn, attrRef(d), d.Role, relation.String(d.Value)); err != nil {
				return nil
			}
		}
		cold := r.olapChildren(e, sn, false, it.Req)
		warm := r.olapChildren(e, sn, true, it.Req)
		r.lazyMs += cold - warm
		opts := exploreOptions(it.Mode)
		e.InvalidateSubspaceRows()
		ms, _ := r.timed("kdapcore.explore", "explore", it.Req, it.Req, func() {
			_, _ = e.ExploreCtx(ctx, sn, opts) // an empty subspace is timed like any answer
		})
		c := &call{Op: "explore", DB: it.DB, Q: it.Q, Pick: it.Pick, Mode: it.Mode, Drill: it.Drill}
		r.out.EngineMs[c.key()] = ms
		// Sequentially, so the olap children never overlap and explore
		// time minus their sum is the explore's own work.
		opts.Parallel = false
		e.InvalidateSubspaceRows()
		seq, _ := r.timed("kdapcore.explore.sequential", "", it.Req, it.Req, func() {
			_, _ = e.ExploreCtx(ctx, sn, opts)
		})
		r.samples["explore_self"] = append(r.samples["explore_self"], seq-warm)
		return nil
	}
	return fmt.Errorf("replay: unknown op %q", it.Op)
}

func attrRef(d *drillSpec) schemagraph.AttrRef {
	return schemagraph.AttrRef{Table: d.Table, Attr: d.Attr}
}

// olapChildren replays the olap calls an explore of sn makes over its
// subspace: the semijoin over the net's constraints, the total
// aggregate, and one group-by (categorical) or series (numeric) per
// non-promoted candidate attribute. It returns their summed time; the
// warm pass records per-call samples.
func (r *replayer) olapChildren(e *kdapcore.Engine, sn *kdapcore.StarNet, warm bool, req string) float64 {
	ctx := context.Background()
	ex := e.Executor()
	g := e.Graph()
	suffix, sample := ".cold", func(string) string { return "" }
	if warm {
		suffix, sample = "", func(s string) string { return s }
	}
	var rows []int
	total, _ := r.timed("olap.semijoin"+suffix, sample("semijoin"), req, req, func() {
		rows, _ = ex.FactRowsCtx(ctx, sn.Constraints()) // an uncancelled scan cannot fail
	})
	if warm {
		r.samples["rows"] = append(r.samples["rows"], float64(len(rows)))
	}
	ms, _ := r.timed("olap.aggregate"+suffix, sample("aggregate"), req, req, func() {
		_, _ = ex.AggregateCtx(ctx, rows, e.Measure(), e.Agg())
	})
	total += ms
	dims := g.Dimensions()
	sort.Slice(dims, func(i, j int) bool { return dims[i].Name < dims[j].Name })
	for _, d := range dims {
		role := d.Name
		promoted := map[schemagraph.AttrRef]bool{}
		for _, bg := range sn.Groups {
			if bg.Path.Dim == d.Name {
				if role == d.Name {
					role = bg.Path.Role
				}
				promoted[schemagraph.AttrRef{Table: bg.Group.Table, Attr: bg.Group.Attr}] = true
			}
		}
		for _, attr := range d.GroupBy {
			if promoted[attr] {
				continue
			}
			path, ok := g.PathFromFact(attr.Table, role)
			if !ok {
				continue
			}
			col, ok := g.DB().Table(attr.Table).Schema().Column(attr.Attr)
			if !ok {
				continue
			}
			if col.Kind == relation.KindInt || col.Kind == relation.KindFloat {
				ms, _ = r.timed("olap.series"+suffix, sample("series"), req, req, func() {
					_, _ = ex.NumericSeriesCtx(ctx, rows, attr.Attr, path, e.Measure())
				})
			} else {
				ms, _ = r.timed("olap.groupby"+suffix, sample("groupby"), req, req, func() {
					_, _ = ex.GroupByCtx(ctx, rows, attr.Attr, path, e.Measure(), e.Agg())
				})
			}
			total += ms
		}
	}
	return total
}

// runReplay writes the replay's inputs, runs the replay child and reads
// back what it measured.
func runReplay(in replayInput, dir string) (*replayOutput, error) {
	inPath := filepath.Join(dir, "replay-in.json")
	outPath := filepath.Join(dir, "replay-out.json")
	raw, err := json.Marshal(in)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(inPath, raw, 0o644); err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--replay-in", inPath, "--replay-out", outPath)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("replay child: %w", err)
	}
	raw, err = os.ReadFile(outPath)
	if err != nil {
		return nil, err
	}
	var out replayOutput
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("decode replay output: %w", err)
	}
	return &out, nil
}

// traceDir is where the traced run writes its spans and the answer check
// its hand-over files: inside the checkout, under the build directory
// version control ignores.
const traceDir = ".bench_build/perfbench"

// finish computes and prints the per-layer metrics of a traced run and
// writes its spans.
func (t *tracer) finish(name string, seed int64, rec *recorder, before, after promSnap,
	rt0, rt1 runtimeSample, rep *report) error {

	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	rp, err := runReplay(replayInputs(name, rec), traceDir)
	if err != nil {
		return err
	}
	delta := func(name string, labels ...string) float64 {
		return after.sum(name, labels...) - before.sum(name, labels...)
	}
	ratio := func(hits, misses float64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return hits / (hits + misses)
	}

	// Server layer, from the traced half of the traffic.
	type opSamples struct{ handler, transport, self, bytes []float64 }
	byOp := map[string]*opSamples{}
	var tracedLat, untracedLat []float64
	notModified, answered := 0, 0
	ops := 0
	for _, c := range rec.calls {
		if c.Phase != "timed" || c.failedTransport() {
			continue
		}
		ops++
		if c.Op == "query" || c.Op == "explore" {
			answered++
			if c.Status == 304 {
				notModified++
			}
			lat := float64(c.End-c.Start) / 1e6
			if c.Op == "explore" {
				if c.ID != "" {
					tracedLat = append(tracedLat, lat)
				} else {
					untracedLat = append(untracedLat, lat)
				}
			}
		}
		if c.ID == "" {
			continue
		}
		h, ok := t.handler(c.ID)
		if !ok {
			continue
		}
		s := byOp[c.Op]
		if s == nil {
			s = &opSamples{}
			byOp[c.Op] = s
		}
		hms := float64(h.End-h.Start) / 1e6
		s.handler = append(s.handler, hms)
		s.transport = append(s.transport, float64(c.End-c.Start)/1e6-hms)
		s.bytes = append(s.bytes, float64(c.Bytes))
		// A miss subtracts its replayed engine call (when the replay
		// covered it); a hit's engine call is the cache lookup, left in.
		if c.Cache != "miss" && c.Cache != "bypass" {
			s.self = append(s.self, hms)
		} else if engine, ok := rp.EngineMs[c.key()]; ok {
			s.self = append(s.self, hms-engine)
		}
	}
	for _, op := range []string{"query", "explore", "drill"} {
		s := byOp[op]
		if s == nil {
			continue
		}
		note := fmt.Sprintf("n=%d", len(s.handler))
		rep.add("server."+op+".handler_ms_p50", pct(s.handler, 50), "ms", note)
		rep.add("server."+op+".transport_ms_p50", pct(s.transport, 50), "ms", note)
		if op == "query" || op == "explore" {
			rep.add("server."+op+".self_ms_p50", pct(s.self, 50), "ms", fmt.Sprintf("n=%d, handler minus replayed engine call on cache misses", len(s.self)))
		}
		rep.add("server."+op+".resp_bytes_mean", mean(s.bytes), "bytes", note)
	}
	rep.add("server.not_modified_frac", float64(notModified)/float64(max(answered, 1)), "ratio", fmt.Sprintf("%d of %d", notModified, answered))

	// Cache layer, from the server's registry over cold pass and timed phase.
	rep.add("cache.explore_hit_ratio", ratio(delta("kdap_answer_cache_hits_total", `phase="explore"`),
		delta("kdap_answer_cache_misses_total", `phase="explore"`)), "ratio", "")
	rep.add("cache.differentiate_hit_ratio", ratio(delta("kdap_answer_cache_hits_total", `phase="differentiate"`),
		delta("kdap_answer_cache_misses_total", `phase="differentiate"`)), "ratio", "")
	rep.add("cache.coalesced", delta("kdap_answer_cache_coalesced_total"), "count", "")
	rep.add("cache.evictions", delta("kdap_answer_cache_evictions_total"), "count", "")
	rep.add("cache.rows_hit_ratio", ratio(delta("kdap_cache_hits_total", `cache="subspace_rows"`),
		delta("kdap_cache_misses_total", `cache="subspace_rows"`)), "ratio", "")
	rep.add("cache.constraint_hit_ratio", ratio(delta("kdap_cache_hits_total", `cache="constraint"`),
		delta("kdap_cache_misses_total", `cache="constraint"`)), "ratio", "")

	// Engine, text index, olap and lazy builds, from the replay.
	m := rp.Metrics
	note := fmt.Sprintf("replay of %.0f queries, %.0f explores", m["replay.queries"], m["replay.explores"])
	units := map[string]string{"kdapcore.nets_per_query": "count", "fulltext.probes_per_query": "count",
		"olap.rows_per_explore": "rows", "olap.kernel_calls": "count", "olap.parallel_scans": "count",
		"olap.multi_scans": "count", "relation.code_vec_builds": "count", "relation.float_col_builds": "count"}
	keys := make([]string, 0, len(m))
	for k := range m {
		if !strings.HasPrefix(k, "replay.") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		u := units[k]
		if u == "" {
			u = "ms"
		}
		rep.add(k, m[k], u, note)
	}
	// Runtime, over the timed phase (server and clients share the process).
	nops := float64(max(ops, 1))
	rep.add("runtime.cpu_ms_per_op", float64(rt1.cpu-rt0.cpu)/1e6/nops, "ms", fmt.Sprintf("%d ops", ops))
	rep.add("runtime.gc_cycles", float64(rt1.gcCycles-rt0.gcCycles), "count", "")
	rep.add("runtime.gc_pause_ms", float64(rt1.pauseNs-rt0.pauseNs)/1e6, "ms", "")
	rep.add("runtime.alloc_mb_per_op", float64(rt1.allocB-rt0.allocB)/(1<<20)/nops, "MiB", "")
	over := 0.0
	if p := pct(untracedLat, 50); p > 0 {
		over = pct(tracedLat, 50)/p - 1
	}
	rep.add("trace_overhead_frac", over, "ratio", fmt.Sprintf("explore p50, traced n=%d vs untraced n=%d", len(tracedLat), len(untracedLat)))

	// Spans: client round trips, server handlers, replayed layer calls.
	path := filepath.Join(traceDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := 0
	for _, c := range rec.calls {
		if c.ID == "" {
			continue
		}
		_ = enc.Encode(span{Name: "client." + c.Op, Start: int64(c.Start), End: int64(c.End), ID: c.ID, Req: c.ID})
		n++
		if h, ok := t.handler(c.ID); ok {
			_ = enc.Encode(h)
			n++
		}
	}
	for _, sp := range rp.Spans {
		_ = enc.Encode(sp)
		n++
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d spans to %s\n", n, path)
	return nil
}
