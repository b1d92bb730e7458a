package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"kdap/internal/dataset"
	"kdap/internal/experiments"
	"kdap/internal/kdapcore"
	"kdap/internal/server"
)

// freshFacts sizes explore_fresh's warehouse: large enough that an
// uncached explore costs tens of milliseconds and the first pass pays
// seconds of lazy builds.
const freshFacts = 500_000

// kdapdOptions returns the server options kdapd's flag defaults produce:
// a 512-entry answer cache with a 5 min TTL, a 10 s per-request deadline,
// no admission cap, no shards, no batching, resident facts.
func kdapdOptions() server.Options {
	o := server.DefaultOptions()
	o.QueryTimeout = 10 * time.Second
	o.MaxInflight = 0
	o.AnswerCacheSize = 512
	o.AnswerCacheTTL = 5 * time.Minute
	o.Shards = 0
	o.Autotune = false
	o.BatchWindow = 0
	o.BatchMax = 16
	o.SLOTarget = 250 * time.Millisecond
	o.SegmentCacheMB = 64
	return o
}

// buildWarehouses builds the workload's served warehouses. Paper-sized
// builds are process-wide singletons in package dataset, so a process
// builds them once; every fresh build of them (the setup probes, the
// reference, the replay) runs in a process of its own.
func buildWarehouses(workload string) map[string]*dataset.Warehouse {
	switch workload {
	case "explore_fresh":
		return map[string]*dataset.Warehouse{"online": dataset.AWOnlineScaled(freshFacts)}
	case "explore_repeat":
		return map[string]*dataset.Warehouse{"online": dataset.AWOnline(), "reseller": dataset.AWReseller()}
	}
	panic("unknown workload " + workload)
}

// uncachedEngines makes an uncached engine over each warehouse, built as
// the server builds its engines minus the answer cache.
func uncachedEngines(whs map[string]*dataset.Warehouse) map[string]*kdapcore.Engine {
	out := map[string]*kdapcore.Engine{}
	for db, wh := range whs {
		out[db] = experiments.Engine(wh)
	}
	return out
}

// stack is the served system: internal/server over loopback HTTP.
type stack struct {
	api    *server.Server
	srv    *http.Server
	base   string
	served chan error
}

// startStack constructs the server exactly as kdapd does and starts
// serving it on a loopback port. wrap, when non-nil, wraps the handler
// (the traced run's span recorder).
func startStack(whs map[string]*dataset.Warehouse, wrap func(http.Handler) http.Handler) (*stack, error) {
	api := server.NewWithOptions(whs, kdapdOptions())
	// kdapd writes one text access-log line per request; the lines are
	// formatted the same way here and discarded.
	api.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	var h http.Handler = api
	if wrap != nil {
		h = wrap(api)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	st := &stack{
		api: api,
		srv: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      60 * time.Second,
			IdleTimeout:       2 * time.Minute,
		},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { st.served <- st.srv.Serve(ln) }()
	return st, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (s *stack) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// setupStack builds the workload's warehouses and serves them, timing
// the two together: that span is setup_s.
func setupStack(workload string, wrap func(http.Handler) http.Handler) (map[string]*dataset.Warehouse, *stack, time.Duration, error) {
	t0 := time.Now()
	whs := buildWarehouses(workload)
	st, err := startStack(whs, wrap)
	return whs, st, time.Since(t0), err
}

// workloadDBs lists the warehouses a workload serves.
func workloadDBs(workload string) []string {
	if workload == "explore_repeat" {
		return []string{"online", "reseller"}
	}
	return []string{"online"}
}

// coldPassOn plays the cold sessions serially and returns their wall time.
func coldPassOn(base string, rec *recorder, ids *atomic.Int64, cold []session, traced bool) time.Duration {
	c := newClient(base, rec, ids)
	defer c.close()
	t0 := time.Now()
	for _, s := range cold {
		c.runSession(s, "cold", traced)
	}
	return time.Since(t0)
}

// setupAndColdPass is one setup-probe: set up the workload's stack and
// play the cold pass on it.
func setupAndColdPass(workload string) (setup, cold time.Duration, err error) {
	_, st, setup, err := setupStack(workload, nil)
	if err != nil {
		return 0, 0, err
	}
	var ids atomic.Int64
	cold = coldPassOn(st.base, newRecorder(), &ids, coldSessions(workloadDBs(workload)), false)
	return setup, cold, st.stop()
}
