package kdapcore

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kdap/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/fingerprints.golden from the current code")

const goldenFile = "testdata/fingerprints.golden"

// TestFingerprintGolden pins the explore output across commits: one
// sha256 of Facets.Fingerprint per explore over the 50 AW_ONLINE
// workload queries × top-3 interpretations × both interest modes, plus
// an explore after drilling into the first instance of the first
// non-promoted facet. The equivalence suites compare code paths within
// one binary; this file compares against the bytes an earlier commit
// produced, so a kernel rewrite that moves a low-order bit everywhere at
// once still fails. Regenerate deliberately with
//
//	go test ./internal/kdapcore -run TestFingerprintGolden -update
//
// Only amd64 is pinned: arm64 compilers fuse multiply-adds, which moves
// the low-order bits of the float scores.
func TestFingerprintGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("fingerprints are pinned on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	if testing.Short() {
		t.Skip("600 explores over AW_ONLINE")
	}
	got := goldenFingerprints(t, awOnlineEngine(), DefaultExploreOptions(), 1)
	if *updateGolden {
		if err := os.WriteFile(goldenFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	matchGolden(t, got)
}

// TestFingerprintGoldenServed runs the golden explores through the
// request pipelines kdapd serves — answer cache on, batching on (2 ms
// gather window), and both — from 4 concurrent clients with parallel
// facet scoring, as the server sets it. Caching, coalescing and shared
// scans are pure scheduling, so every configuration must reproduce the
// golden file byte for byte.
func TestFingerprintGoldenServed(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("fingerprints are pinned on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	if testing.Short() {
		t.Skip("three served configurations × the golden explores over AW_ONLINE")
	}
	opts := DefaultExploreOptions()
	opts.Parallel = true
	for _, cfg := range []struct {
		name         string
		cache, batch bool
	}{
		{"cache", true, false},
		{"batch", false, true},
		{"cache+batch", true, true},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			e := awOnlineEngine()
			if cfg.cache {
				e.SetAnswerCache(512, 0)
			}
			if cfg.batch {
				e.SetBatching(2*time.Millisecond, DefaultBatchMax)
			}
			matchGolden(t, goldenFingerprints(t, e, opts, 4))
		})
	}
}

// matchGolden compares fingerprint lines against the golden file.
func matchGolden(t *testing.T, got []string) {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d fingerprint lines, golden has %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			bad++
			if bad <= 5 {
				t.Errorf("line %d:\n got %s\nwant %s", i+1, got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d explores differ from %s", bad, len(got), goldenFile)
	}
}

// goldenFingerprints renders one "<query id> <pick> <mode> <step> <hash>"
// line per explore, with "error: ..." in place of the hash when the
// explore fails, so a changed failure is pinned as well. The workload's
// queries are spread over clients concurrent goroutines; the lines come
// back in workload order either way.
func goldenFingerprints(t *testing.T, e *Engine, base ExploreOptions, clients int) []string {
	t.Helper()
	qs := workload.AWOnlineQueries()
	lines := make([][]string, len(qs))
	errs := make([]error, len(qs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(qs); i = int(next.Add(1) - 1) {
				lines[i], errs[i] = goldenQueryLines(e, qs[i], base)
			}
		}()
	}
	wg.Wait()
	var out []string
	for i := range qs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		out = append(out, lines[i]...)
	}
	return out
}

// goldenQueryLines renders one workload query's golden lines.
func goldenQueryLines(e *Engine, q workload.Query, base ExploreOptions) ([]string, error) {
	hash := func(f *Facets, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		return fmt.Sprintf("%x", sha256.Sum256(f.Fingerprint()))
	}
	nets, err := e.Differentiate(q.Text)
	if err != nil {
		return nil, fmt.Errorf("q%d %q: %v", q.ID, q.Text, err)
	}
	var out []string
	for pick := 0; pick < 3 && pick < len(nets); pick++ {
		for _, mode := range []InterestMode{Surprise, Bellwether} {
			opts := base
			opts.Mode = mode
			tag := fmt.Sprintf("q%d %d %s", q.ID, pick+1, mode)
			f, err := e.Explore(nets[pick], opts)
			out = append(out, tag+" explore "+hash(f, err))
			if err != nil {
				continue
			}
			drilled, ok, err := drillFirstInstance(e, nets[pick], f)
			if err != nil {
				return nil, fmt.Errorf("%s: drill: %v", tag, err)
			}
			if !ok {
				out = append(out, tag+" drill none")
				continue
			}
			out = append(out, tag+" drill "+hash(e.Explore(drilled, opts)))
		}
	}
	return out, nil
}

// drillFirstInstance narrows sn by the first instance of the first
// non-promoted facet, the way a user's first click would.
func drillFirstInstance(e *Engine, sn *StarNet, f *Facets) (*StarNet, bool, error) {
	for _, d := range f.Dimensions {
		for _, a := range d.Attributes {
			if a.Promoted || len(a.Instances) == 0 {
				continue
			}
			in := a.Instances[0]
			var out *StarNet
			var err error
			if a.Numeric {
				out, err = e.DrillRange(sn, a.Attr, a.Role, in.Lo, in.Hi)
			} else {
				out, err = e.Drill(sn, a.Attr, a.Role, in.Value)
			}
			return out, err == nil, err
		}
	}
	return nil, false, nil
}
