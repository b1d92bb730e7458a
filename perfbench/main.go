// Command perfbench is kdap's serving benchmark. It builds a workload's
// warehouse fresh, serves it through internal/server configured as
// kdapd's flag defaults configure it, drives one seeded workload over
// loopback HTTP, checks every answer against an uncached reference
// engine built in a process of its own, and prints the end-to-end
// metrics; with --trace 1 it prints the per-layer metrics instead. See
// README.md for the workloads, the metrics and how to run it.
//
//	perfbench --workload explore_fresh --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sync/atomic"
	"time"
)

// nclients is the closed-loop client count: one per core of the 2-core
// machines the benchmark is sized for.
const nclients = 2

var workloads = map[string]bool{"explore_fresh": true, "explore_repeat": true}

func main() {
	name := flag.String("workload", "", "explore_fresh | explore_repeat")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	setupProbe := flag.String("setup-probe", "", "build and serve the named workload's stack once, print the setup time and exit")
	replayIn := flag.String("replay-in", "", "replay the recorded inputs in this file through the layers' functions")
	replayOut := flag.String("replay-out", "", "where the replay writes its spans and timings")
	verifyIn := flag.String("verify-in", "", "check the recorded answers in this file against a fresh reference build")
	verifyOut := flag.String("verify-out", "", "where the check writes its verdict")
	flag.Parse()

	switch {
	case *setupProbe != "":
		if !workloads[*setupProbe] {
			fatalf("unknown workload %q", *setupProbe)
		}
		setup, cold, err := setupAndColdPass(*setupProbe)
		if err != nil {
			fatalf("setup probe: %v", err)
		}
		fmt.Printf("%.9f %.9f\n", setup.Seconds(), cold.Seconds())
		return
	case *replayIn != "":
		if err := replayMain(*replayIn, *replayOut); err != nil {
			fatalf("replay: %v", err)
		}
		return
	case *verifyIn != "":
		if err := verifyMain(*verifyIn, *verifyOut); err != nil {
			fatalf("answer check: %v", err)
		}
		return
	}
	if !workloads[*name] {
		fatalf("unknown workload %q (want explore_fresh or explore_repeat)", *name)
	}
	if *seconds < 1 {
		fatalf("--seconds must be at least 1")
	}
	res, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(out))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints metrics as "name value unit" lines and keeps the ones
// the final JSON line carries.
type report struct {
	keep map[string]bool
	out  map[string]metric
}

func (r *report) add(name string, v float64, unit string, note string) {
	fmt.Printf("%-40s %14.4f %-6s %s\n", name, v, unit, note)
	if r.keep[name] {
		r.out[name] = metric{Value: v, Unit: unit}
	}
}

// endToEnd are the metrics the untraced run's JSON line carries: the ones
// every workload measures and that repeat across seeds. query_p95_ms is
// printed but left out: a 0.5 ms query's tail is whatever it collides
// with in the concurrent work, and it spread by up to half its median
// across seeds.
var endToEnd = []string{"setup_s", "cold_pass_s", "query_p50_ms",
	"explore_p50_ms", "explore_p95_ms", "ops_per_s", "heap_mb"}

func keepSet(names []string) map[string]bool {
	m := map[string]bool{}
	for _, n := range names {
		m[n] = true
	}
	return m
}

// run executes one workload run: setup, cold pass, timed phase, the
// answer check and, for the traced run, the replay.
func run(name string, seed int64, dur time.Duration, traced bool) (*result, error) {
	rng := rand.New(rand.NewSource(seed))
	rec := newRecorder()
	var tr *tracer
	var wrap func(http.Handler) http.Handler
	if traced {
		tr = newTracer(rec.epoch)
		wrap = tr.wrap
	}
	whs, st, setup1, err := setupStack(name, wrap)
	if err != nil {
		return nil, err
	}
	var ids atomic.Int64

	// The generator's own preparation, excluded from setup_s.
	dbs := workloadDBs(name)
	var sessions []session
	switch name {
	case "explore_fresh":
		sessions = freshSessions(rng, whs["online"], int(dur.Seconds())*freshSessionsPerSec+200)
	case "explore_repeat":
		sessions = repeatSessions(rng, dbs, int(dur.Seconds())*repeatSessionsPerSec)
	}
	whs = nil
	cold := coldSessions(dbs)
	var before promSnap
	if tr != nil {
		before = scrape(st.api)
	}

	// Cold pass: the Table-3 sessions, serially, on the fresh server.
	coldPass := coldPassOn(st.base, rec, &ids, cold, traced)

	// Timed phase.
	rt0 := readRuntime()
	deadline := time.Now().Add(dur)
	wall, used := closedLoop(st.base, rec, &ids, sessions, nclients, deadline, traced)
	if used >= len(sessions) {
		fmt.Printf("WARNING: all %d generated sessions were used before the deadline; the timed phase ran %.3fs of %.0fs\n",
			len(sessions), wall.Seconds(), dur.Seconds())
	}
	rt1 := readRuntime()
	liveWithServer := liveHeap()
	var after promSnap
	if tr != nil {
		after = scrape(st.api)
	}
	if err := st.stop(); err != nil {
		return nil, err
	}
	st = nil
	// heap_mb is what the served stack holds: the live heap with it, minus
	// the live heap once it is released (the generator's recordings stay).
	heapMB := (liveWithServer - settledLiveHeap()) / (1 << 20)

	setups, colds := []float64{setup1.Seconds()}, []float64{coldPass.Seconds()}
	for i := 0; i < 2; i++ {
		s, c, err := probeSetup(name)
		if err != nil {
			return nil, err
		}
		setups, colds = append(setups, s), append(colds, c)
	}

	// The answer check, against a reference built in a process of its own.
	failed, err := runVerify(name, rec)
	if err != nil {
		return nil, err
	}
	attempted := len(rec.calls)

	rep := &report{keep: keepSet(endToEnd), out: map[string]metric{}}
	if tr != nil {
		rep.keep = keepSet(perLayer)
	}
	timed := func(op string) []*call {
		var out []*call
		for _, c := range rec.calls {
			if c.Phase == "timed" && c.Op == op && !c.failedTransport() {
				out = append(out, c)
			}
		}
		return out
	}
	queries, explores := timed("query"), timed("explore")
	ops := len(queries) + len(explores) + len(timed("drill"))
	fmt.Printf("workload %s seed %d: %d sessions started, %d API calls checked, %d failed\n",
		name, seed, countSessions(rec), attempted, failed)
	rep.add("setup_s", median(setups), "s", fmt.Sprintf("median of %d setups %v", len(setups), fmtList(setups)))
	rep.add("cold_pass_s", median(colds), "s", fmt.Sprintf("%d Table-3 sessions, median of %d fresh servers %v", len(cold), len(colds), fmtList(colds)))
	q := latencies(queries)
	e := latencies(explores)
	rep.add("query_p50_ms", pct(q, 50), "ms", fmt.Sprintf("n=%d", len(q)))
	rep.add("query_p95_ms", pct(q, 95), "ms", fmt.Sprintf("n=%d", len(q)))
	rep.add("explore_p50_ms", pct(e, 50), "ms", fmt.Sprintf("n=%d", len(e)))
	rep.add("explore_p95_ms", pct(e, 95), "ms", fmt.Sprintf("n=%d", len(e)))
	rep.add("ops_per_s", float64(ops)/wall.Seconds(), "1/s", fmt.Sprintf("%d ops in %.3fs by %d closed-loop clients", ops, wall.Seconds(), nclients))
	rep.add("heap_mb", heapMB, "MiB", "live heap the served stack holds at the end of the timed phase")
	rep.add("failed_frac", float64(failed)/float64(max(attempted, 1)), "ratio", fmt.Sprintf("%d of %d", failed, attempted))
	workloadProperties(rec, explores)
	if tr != nil {
		if err := tr.finish(name, seed, rec, before, after, rt0, rt1, rep); err != nil {
			return nil, err
		}
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: rep.out}, nil
}
