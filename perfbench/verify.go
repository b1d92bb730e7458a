package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"kdap/internal/kdapcore"
	"kdap/internal/relation"
	"kdap/internal/schemagraph"
	"kdap/internal/server"
	"kdap/internal/workload"
)

// queryLimit is the server's default interpretation count per response.
const queryLimit = 20

// oracle answers every recorded request from uncached reference engines.
type oracle struct {
	engines map[string]*kdapcore.Engine
	nets    map[string][]*kdapcore.StarNet
	netErr  map[string]error
	answers map[string]*facetDigest // explore key -> digest, nil for an error
	// orderDiffs counts explore answers that match the reference but rank
	// facets or instances in another order.
	orderDiffs int
}

func newOracle(engines map[string]*kdapcore.Engine) *oracle {
	return &oracle{engines: engines, nets: map[string][]*kdapcore.StarNet{},
		netErr: map[string]error{}, answers: map[string]*facetDigest{}}
}

func (o *oracle) differentiate(db, q string) ([]*kdapcore.StarNet, error) {
	k := db + "|" + q
	if nets, ok := o.nets[k]; ok {
		return nets, o.netErr[k]
	}
	nets, err := o.engines[db].DifferentiateCtx(context.Background(), q)
	o.nets[k], o.netErr[k] = nets, err
	return nets, err
}

// net resolves the star net a recorded explore or drill asked about.
func (o *oracle) net(c *call) (*kdapcore.StarNet, error) {
	nets, err := o.differentiate(c.DB, c.Q)
	if err != nil {
		return nil, err
	}
	nets = nets[:min(len(nets), queryLimit)]
	if c.Pick < 1 || c.Pick > len(nets) {
		return nil, fmt.Errorf("pick %d out of range", c.Pick)
	}
	sn := nets[c.Pick-1]
	if c.Drill == nil {
		return sn, nil
	}
	d := c.Drill
	return o.engines[c.DB].Drill(sn, schemagraph.AttrRef{Table: d.Table, Attr: d.Attr}, d.Role, relation.String(d.Value))
}

func (o *oracle) explore(c *call) *facetDigest {
	k := c.key()
	if a, ok := o.answers[k]; ok {
		return a
	}
	var a *facetDigest
	if sn, err := o.net(c); err == nil {
		opts := exploreOptions(c.Mode)
		if f, err := o.engines[c.DB].ExploreCtx(context.Background(), sn, opts); err == nil {
			d := facetsDigest(f)
			a = &d
		}
	}
	o.answers[k] = a
	return a
}

// precompute answers every distinct explore the check will need, on
// nclients workers (the reference engine is safe for concurrent use).
func (o *oracle) precompute(calls []*call) {
	var todo []*call
	queued := map[string]bool{}
	for _, c := range calls {
		k := c.key()
		if c.Op != "explore" || c.Status != 200 && c.Status != 422 || queued[k] {
			continue
		}
		queued[k] = true
		if _, err := o.differentiate(c.DB, c.Q); err == nil {
			todo = append(todo, c)
		}
	}
	nets := make([]*kdapcore.StarNet, len(todo))
	for i, c := range todo {
		nets[i], _ = o.net(c) // a nil net is answered as an error below
	}
	out := make([]*facetDigest, len(todo))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nclients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(todo); i = int(next.Add(1) - 1) {
				if nets[i] == nil {
					continue
				}
				c := todo[i]
				if f, err := o.engines[c.DB].ExploreCtx(context.Background(), nets[i], exploreOptions(c.Mode)); err == nil {
					d := facetsDigest(f)
					out[i] = &d
				}
			}
		}()
	}
	wg.Wait()
	for i, c := range todo {
		o.answers[c.key()] = out[i]
	}
}

// exploreOptions are the options /api/explore runs with for a mode.
func exploreOptions(mode string) kdapcore.ExploreOptions {
	opts := kdapcore.DefaultExploreOptions()
	opts.Parallel = true
	if mode == "bellwether" {
		opts.Mode = kdapcore.Bellwether
	}
	return opts
}

// facetDigest holds what an explore answer must reproduce exactly: the
// subspace size, the total aggregate, each dimension's facet attributes,
// and each attribute's instance labels and aggregates. The ranking order
// of attributes and instances (set by float scores) is kept apart.
type facetDigest struct{ exact, order string }

type digestAttr struct {
	name  string
	insts []string
}

func digest(size int, total float64, dims [][]digestAttr) facetDigest {
	var exact, order strings.Builder
	fmt.Fprintf(&exact, "%d|%s", size, fbits(total))
	for di, attrs := range dims {
		for _, a := range attrs {
			fmt.Fprintf(&order, "%d %s: %s\n", di, a.name, strings.Join(a.insts, " "))
		}
		sorted := append([]digestAttr(nil), attrs...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].name < sorted[j].name })
		for _, a := range sorted {
			insts := append([]string(nil), a.insts...)
			sort.Strings(insts)
			fmt.Fprintf(&exact, "\n%d %s: %s", di, a.name, strings.Join(insts, " "))
		}
	}
	return facetDigest{exact: exact.String(), order: order.String()}
}

func facetsDigest(f *kdapcore.Facets) facetDigest {
	dims := make([][]digestAttr, len(f.Dimensions))
	for i, d := range f.Dimensions {
		for _, a := range d.Attributes {
			da := digestAttr{name: d.Dimension + "/" + a.Attr.Table + "." + a.Attr.Attr}
			for _, in := range a.Instances {
				da.insts = append(da.insts, in.Label+"="+fbits(in.Aggregate))
			}
			dims[i] = append(dims[i], da)
		}
	}
	return digest(f.SubspaceSize, f.TotalAggregate, dims)
}

func dtoDigest(f *server.FacetsDTO) facetDigest {
	dims := make([][]digestAttr, len(f.Dimensions))
	for i, d := range f.Dimensions {
		for _, a := range d.Attributes {
			da := digestAttr{name: d.Dimension + "/" + a.Table + "." + a.Attr}
			for _, in := range a.Instances {
				da.insts = append(da.insts, in.Label+"="+fbits(in.Aggregate))
			}
			dims[i] = append(dims[i], da)
		}
	}
	return digest(f.SubspaceSize, f.TotalAggregate, dims)
}

// firstDiff shows the first line where two digests differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < max(len(g), len(w)); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("got %q, reference %q", gl, wl)
		}
	}
	return ""
}

func fbits(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// verdict checks one recorded call against the reference. It returns ""
// when the call is correct and a reason otherwise.
func (o *oracle) verdict(c *call, body []byte) string {
	if c.failedTransport() {
		return "transport: " + c.Err
	}
	if c.Status >= 500 || c.Status == 0 {
		return fmt.Sprintf("status %d", c.Status)
	}
	if c.Status == 304 {
		if c.INM {
			return ""
		}
		return "unsolicited 304"
	}
	switch c.Op {
	case "query":
		nets, err := o.differentiate(c.DB, c.Q)
		if err != nil {
			if c.Status == 400 {
				return ""
			}
			return fmt.Sprintf("status %d where the reference fails (%v)", c.Status, err)
		}
		if c.Status != 200 {
			return fmt.Sprintf("status %d where the reference answers", c.Status)
		}
		var qr server.QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			return "undecodable query answer: " + err.Error()
		}
		nets = nets[:min(len(nets), queryLimit)]
		if len(nets) != len(qr.Interpretations) {
			return fmt.Sprintf("%d interpretations, reference %d", len(qr.Interpretations), len(nets))
		}
		for i, in := range qr.Interpretations {
			if in.Signature != nets[i].DomainSignature() {
				return fmt.Sprintf("interpretation %d is %q, reference %q", i+1, in.Signature, nets[i].DomainSignature())
			}
		}
		return ""
	case "drill":
		_, err := o.net(c)
		if (err == nil) != (c.Status == 200) {
			return fmt.Sprintf("drill status %d, reference error %v", c.Status, err)
		}
		return ""
	case "explore":
		want := o.explore(c)
		if want == nil {
			if c.Status == 422 {
				return ""
			}
			return fmt.Sprintf("status %d where the reference fails", c.Status)
		}
		if c.Status != 200 {
			return fmt.Sprintf("status %d where the reference answers", c.Status)
		}
		var f server.FacetsDTO
		if err := json.Unmarshal(body, &f); err != nil {
			return "undecodable explore answer: " + err.Error()
		}
		if f.Partial {
			return "partial answer"
		}
		got := dtoDigest(&f)
		if got.exact != want.exact {
			return "answer differs from the reference: " + firstDiff(got.exact, want.exact)
		}
		if got.order != want.order {
			o.orderDiffs++
			fmt.Printf("ORDER %s %q pick=%d mode=%s drill=%s: %s\n",
				c.Phase, c.Q, c.Pick, c.Mode, c.Drill.key(), firstDiff(got.order, want.order))
		}
		return ""
	}
	return "unknown op " + c.Op
}

// verifyAll checks every recorded call; identical answers to one request
// are checked once. It returns the number of failed calls and prints the
// first few reasons.
func verifyAll(o *oracle, calls []*call, bodies map[uint64][]byte) int {
	o.precompute(calls)
	checked := map[string]string{}
	failed := 0
	shown := 0
	for _, c := range calls {
		var reason string
		k := fmt.Sprintf("%s|%d|%d|%x|%t|%s", c.key(), c.Status, c.Bytes, c.BodyKey, c.INM, c.Err)
		if c.Op == "query" || c.Op == "explore" {
			if r, ok := checked[k]; ok {
				reason = r
			} else {
				reason = o.verdict(c, bodies[c.BodyKey])
				checked[k] = reason
			}
		} else {
			reason = o.verdict(c, nil)
		}
		if reason != "" {
			failed++
			if shown < 5 {
				shown++
				fmt.Printf("FAILED %s %s %q pick=%d mode=%s drill=%s: %s\n",
					c.Phase, c.Op, c.Q, c.Pick, c.Mode, c.Drill.key(), reason)
			}
		}
	}
	return failed
}

// verifyInput is what the run hands the answer check: every call it
// recorded and one copy of each distinct answer body.
type verifyInput struct {
	Workload string
	Calls    []*call
	Bodies   map[uint64][]byte
}

// runVerify checks the recorded answers in a child process. The child
// builds the workload's warehouses again from scratch: the paper-sized
// builds are process singletons, and a reference that shared them (their
// text index, their tables' lazy hash indexes and columns) would share
// any defect in them with the served stack. It returns the number of
// failed calls; the child prints its findings to standard output.
func runVerify(workload string, rec *recorder) (int, error) {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return 0, err
	}
	inPath := filepath.Join(traceDir, "verify-in.gob")
	outPath := filepath.Join(traceDir, "verify-out.json")
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(verifyInput{Workload: workload, Calls: rec.calls, Bodies: rec.bodies}); err != nil {
		return 0, err
	}
	if err := os.WriteFile(inPath, buf.Bytes(), 0o644); err != nil {
		return 0, err
	}
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "--verify-in", inPath, "--verify-out", outPath)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("answer check child: %w", err)
	}
	raw, err := os.ReadFile(outPath)
	if err != nil {
		return 0, err
	}
	var failed int
	if err := json.Unmarshal(raw, &failed); err != nil {
		return 0, fmt.Errorf("decode answer check verdict: %w", err)
	}
	return failed, nil
}

// verifyMain is the answer-check child: it builds the reference, checks
// every recorded call, prints the Table-3 precision@1 sentinel on
// explore_repeat and writes the number of failed calls.
func verifyMain(inPath, outPath string) error {
	raw, err := os.ReadFile(inPath)
	if err != nil {
		return err
	}
	var in verifyInput
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&in); err != nil {
		return fmt.Errorf("decode %s: %w", inPath, err)
	}
	o := newOracle(uncachedEngines(buildWarehouses(in.Workload)))
	failed := verifyAll(o, in.Calls, in.Bodies)
	fmt.Printf("property facet_order_differs %d (answers that match the reference but rank facets or instances in another order)\n", o.orderDiffs)
	if in.Workload == "explore_repeat" {
		for _, db := range []string{"online", "reseller"} {
			qs := workload.AWOnlineQueries()
			if db == "reseller" {
				qs = workload.AWResellerQueries()
			}
			good := 0
			for _, q := range qs {
				nets, err := o.differentiate(db, q.Text)
				if err == nil && len(nets) > 0 && q.Relevant(nets[0].DomainSignature()) {
					good++
				}
			}
			fmt.Printf("property table3_precision_at_1 %s %d/%d\n", db, good, len(qs))
		}
	}
	out, err := json.Marshal(failed)
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, out, 0o644)
}
