package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// clientTimeout outlasts kdapd's 10 s per-request deadline, so a request
// the server abandons comes back as a 504 and a stuck one is cut here and
// counted as failed while the run still ends.
const clientTimeout = 15 * time.Second

// drillSpec is the facet instance a session drilled into.
type drillSpec struct {
	Table, Attr, Role, Value string
}

func (d *drillSpec) key() string {
	if d == nil {
		return ""
	}
	return d.Table + "." + d.Attr + "[" + d.Role + "]=" + d.Value
}

// call is one API request the generator sent and what came back. Times
// are offsets from the run's epoch.
type call struct {
	ID      string // request id ("t…" for traced requests)
	Phase   string // cold | timed
	Op      string // query | explore | drill
	DB, Q   string
	Pick    int
	Mode    string
	Drill   *drillSpec
	INM     bool // sent If-None-Match
	Status  int
	Err     string
	Cache   string // X-KDAP-Cache
	Bytes   int
	BodyKey uint64 // key into recorder.bodies
	Start   time.Duration
	End     time.Duration
}

// key identifies the answer a query or explore request asks for.
func (c *call) key() string {
	switch c.Op {
	case "query":
		return "query|" + c.DB + "|" + c.Q
	case "explore":
		return fmt.Sprintf("explore|%s|%s|%d|%s|%s", c.DB, c.Q, c.Pick, c.Mode, c.Drill.key())
	}
	return ""
}

func (c *call) failedTransport() bool { return c.Err != "" }

// recorder collects calls, keeping one copy of each distinct answer body.
type recorder struct {
	epoch  time.Time
	mu     sync.Mutex
	calls  []*call
	bodies map[uint64][]byte
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), bodies: map[uint64][]byte{}}
}

func (r *recorder) since() time.Duration { return time.Since(r.epoch) }

// add stores a finished call. Query bodies carry a per-request session id,
// which is left out of the dedup key so identical answers share one copy.
func (r *recorder) add(c *call, body []byte) {
	h := fnv.New64a()
	h.Write([]byte(c.key()))
	h.Write([]byte{0})
	h.Write(stripSession(body))
	c.BodyKey = h.Sum64()
	r.mu.Lock()
	r.calls = append(r.calls, c)
	if _, ok := r.bodies[c.BodyKey]; !ok && len(body) > 0 && (c.Op == "query" || c.Op == "explore") {
		r.bodies[c.BodyKey] = body
	}
	r.mu.Unlock()
}

// stripSession drops the leading "session" member of a query response.
func stripSession(body []byte) []byte {
	if i := bytes.Index(body, []byte(`,"query":`)); i >= 0 && bytes.HasPrefix(body, []byte(`{"session":`)) {
		return body[i:]
	}
	return body
}

// client is one closed-loop API user over a keep-alive connection.
type client struct {
	hc    *http.Client
	base  string
	rec   *recorder
	ids   *atomic.Int64
	etags map[string]string // answer key -> last ETag seen by this client
}

func newClient(base string, rec *recorder, ids *atomic.Int64) *client {
	return &client{
		hc: &http.Client{
			Timeout:   clientTimeout,
			Transport: &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true},
		},
		base:  base,
		rec:   rec,
		ids:   ids,
		etags: map[string]string{},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends one API request and records it. traced requests carry a
// "t"-prefixed X-Request-ID, which the traced run's server wrapper keys
// its span on. It returns the body of a 2xx response.
func (c *client) post(cl *call, path string, payload []byte, traced bool) ([]byte, http.Header) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(payload))
	if err != nil {
		panic(err) // the URL is built from a loopback address
	}
	req.Header.Set("Content-Type", "application/json")
	if traced {
		cl.ID = "t" + strconv.FormatInt(c.ids.Add(1), 10)
		req.Header.Set("X-Request-ID", cl.ID)
	}
	if k := cl.key(); cl.INM && c.etags[k] != "" {
		req.Header.Set("If-None-Match", c.etags[k])
	} else {
		cl.INM = false
	}
	cl.Start = c.rec.since()
	resp, err := c.hc.Do(req)
	var body []byte
	var hdr http.Header
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		cl.Status, hdr = resp.StatusCode, resp.Header
	}
	cl.End = c.rec.since()
	if err != nil {
		cl.Err = err.Error()
	}
	cl.Bytes = len(body)
	if hdr != nil {
		cl.Cache = hdr.Get("X-KDAP-Cache")
		if et := hdr.Get("ETag"); et != "" {
			c.etags[cl.key()] = et
		}
	}
	c.rec.add(cl, body)
	if cl.Err != "" || cl.Status/100 != 2 {
		return nil, hdr
	}
	return body, hdr
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps are marshalled
	}
	return b
}
