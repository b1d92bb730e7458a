package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// pct is the nearest-rank percentile of xs (0 for no samples).
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return pct(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// latencies returns the calls' round trips in milliseconds.
func latencies(cs []*call) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = float64(c.End-c.Start) / 1e6
	}
	return out
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func countSessions(rec *recorder) int {
	n := 0
	for _, c := range rec.calls {
		if c.Op == "query" {
			n++
		}
	}
	return n
}

// probeSetup times one more setup of the workload's stack, and the cold
// pass on it, in a child process: the paper-sized warehouses are built
// once per process, so a repeated setup needs a fresh one.
func probeSetup(name string) (setup, cold float64, err error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, 0, err
	}
	cmd := exec.Command(exe, "--setup-probe", name)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, 0, fmt.Errorf("setup probe: %w", err)
	}
	if _, err := fmt.Sscan(string(out), &setup, &cold); err != nil {
		return 0, 0, fmt.Errorf("setup probe output %q: %w", out, err)
	}
	return setup, cold, nil
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// settledLiveHeap is the smallest live heap over half a second: the
// server's connection goroutines may still be exiting, holding it, just
// after Shutdown returns.
func settledLiveHeap() float64 {
	least := liveHeap()
	for i := 0; i < 5; i++ {
		time.Sleep(100 * time.Millisecond)
		least = math.Min(least, liveHeap())
	}
	return least
}

// runtimeSample is the process's CPU time and GC counters at one instant.
type runtimeSample struct {
	cpu      time.Duration
	gcCycles uint64
	allocB   uint64
	pauseNs  uint64
}

func readRuntime() runtimeSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeSample{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCycles: s[0].Value.Uint64(),
		allocB:   s[1].Value.Uint64(),
		pauseNs:  ms.PauseTotalNs,
	}
}

// workloadProperties prints the input properties later claims depend on:
// how often an answer was asked for again, how many distinct star nets
// were explored against the caches' capacities, the subspace sizes, and
// the explore p50 of each class of request whose share in the traffic
// is an assumption of the benchmark (mode, If-None-Match). The answer
// check prints the Table-3 precision@1 sentinel.
func workloadProperties(rec *recorder, timedExplores []*call) {
	seenKey := map[string]bool{}
	nets := map[string]bool{}
	repeats, explores := 0, 0
	var sizes []float64
	sizeOf := map[uint64]float64{}
	for _, c := range rec.calls {
		if c.Op != "explore" || c.failedTransport() {
			continue
		}
		k := c.key()
		if c.Phase == "timed" {
			explores++
			if seenKey[k] {
				repeats++
			}
		}
		seenKey[k] = true
		nets[fmt.Sprintf("%s|%s|%d|%s", c.DB, c.Q, c.Pick, c.Drill.key())] = true
		if c.Status != 200 {
			continue
		}
		sz, ok := sizeOf[c.BodyKey]
		if !ok {
			var f struct{ SubspaceSize int }
			if json.Unmarshal(rec.bodies[c.BodyKey], &f) == nil {
				sz = float64(f.SubspaceSize)
			}
			sizeOf[c.BodyKey] = sz
		}
		sizes = append(sizes, sz)
	}
	fmt.Printf("property answer_repeat_share %.4f (%d of %d timed explores ask for an answer asked for before)\n",
		float64(repeats)/float64(max(explores, 1)), repeats, explores)
	fmt.Printf("property distinct_star_nets %d (rows cache holds 128, answer cache 512 per phase)\n", len(nets))
	fmt.Printf("property subspace_rows_quartiles %.0f %.0f %.0f\n", pct(sizes, 25), pct(sizes, 50), pct(sizes, 75))
	classes := map[string][]float64{}
	for _, c := range timedExplores {
		lat := float64(c.End-c.Start) / 1e6
		classes["mode="+c.Mode] = append(classes["mode="+c.Mode], lat)
		inm := "if_none_match=" + strconv.FormatBool(c.INM)
		classes[inm] = append(classes[inm], lat)
	}
	for _, k := range []string{"mode=surprise", "mode=bellwether", "if_none_match=false", "if_none_match=true"} {
		fmt.Printf("property explore_p50_ms %s %.4f (n=%d, %.3f of timed explores)\n",
			k, pct(classes[k], 50), len(classes[k]), float64(len(classes[k]))/float64(max(len(timedExplores), 1)))
	}
}

// promSnap is one scrape of the server's metrics registry: series text
// ("name{labels}") to value.
type promSnap map[string]float64

// sum adds every series of the family name whose labels contain all of
// the given label="value" pairs.
func (p promSnap) sum(name string, labels ...string) float64 {
	t := 0.0
	for k, v := range p {
		if !strings.HasPrefix(k, name+"{") && k != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(k, l) {
				ok = false
				break
			}
		}
		if ok {
			t += v
		}
	}
	return t
}

func parseProm(text string) promSnap {
	out := promSnap{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}
