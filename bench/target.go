package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"dgs/internal/serve"
)

// target is the server a serve workload drives: the dgs-api binary as a
// child process on untraced runs (the program as shipped, measured across
// a real process boundary), or the same wiring inside this process on
// traced runs, where a benchmark-side middleware can see each handler.
type target struct {
	base   string
	client *http.Client
	tr     *tracer
	// stop shuts the server down and reports its peak resident set and
	// CPU time (this process's, for an in-process server).
	stop func() (peakRSSMB float64, cpu time.Duration, err error)
}

// serverSeed is dgs-api's own -seed default. The benchmark never passes the
// flag; it only has to build the same world when it checks a response
// against a direct call, refreshes the server's element sets, or runs the
// server in-process.
const serverSeed = 1

// serverWorld is the world dgs-api loads with its default flags.
func serverWorld(r *run) serve.SnapshotConfig {
	return serve.SnapshotConfig{Satellites: r.sz.serveSats, Stations: r.sz.serveStations, Seed: serverSeed}
}

// spanHeader carries the client's span id to the in-process middleware, so
// a handler span hangs under the request that caused it.
const spanHeader = "X-Bench-Span"

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: runtime.NumCPU() + 2},
		Timeout:   60 * time.Second,
	}
}

// startTarget brings a server up and returns once /v2/readyz is 200,
// together with the time that took.
func startTarget(r *run) (*target, time.Duration, error) {
	t0 := time.Now()
	var t *target
	var err error
	if r.tr != nil {
		t, err = startInProcess(r)
	} else {
		t, err = startChild(r)
	}
	if err != nil {
		return nil, 0, err
	}
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, err := t.client.Get(t.base + "/v2/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return t, time.Since(t0), nil
			}
		}
		if time.Now().After(deadline) {
			t.stop()
			return nil, 0, fmt.Errorf("server at %s not ready after 60s (last error %v)", t.base, err)
		}
	}
}

// buildServer builds cmd/dgs-api into bench/out, outside any timing. The go
// command's build cache makes a rebuild of unchanged sources a no-op.
func buildServer(r *run) error {
	r.serverBin = filepath.Join(r.opt.outDir, "dgs-api")
	cmd := exec.Command("go", "build", "-o", r.serverBin, "./cmd/dgs-api")
	cmd.Dir = r.opt.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/dgs-api: %v\n%s", err, out)
	}
	return nil
}

var servingOn = regexp.MustCompile(`serving on (\S+)`)

// startChild runs dgs-api on an ephemeral port with its defaults: the
// server is told nothing about the benchmark seed and sees only requests.
func startChild(r *run) (*target, error) {
	args := []string{"-listen", "127.0.0.1:0"}
	if r.sz.serveSats > 0 {
		args = append(args, "-sats", strconv.Itoa(r.sz.serveSats), "-stations", strconv.Itoa(r.sz.serveStations))
	}
	cmd := exec.Command(r.serverBin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	// The child logs its bound address, then little else; keep draining so
	// it never blocks on a full pipe, and keep the log for a failure report.
	addr := make(chan string, 1)
	var log strings.Builder
	logClosed := make(chan struct{}) // stderr closes when the child exits
	go func() {
		defer close(logClosed)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			log.WriteString(sc.Text() + "\n")
			if m := servingOn.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
	}()
	t := &target{client: newClient()}
	t.stop = func() (float64, time.Duration, error) {
		t.client.CloseIdleConnections()
		cmd.Process.Signal(os.Interrupt)
		kill := time.AfterFunc(20*time.Second, func() { cmd.Process.Kill() })
		<-logClosed
		err := cmd.Wait()
		kill.Stop()
		rss, cpu := childUsage(cmd.ProcessState)
		if err == nil && !strings.Contains(log.String(), "clean shutdown") {
			err = fmt.Errorf("dgs-api exited without a clean shutdown:\n%s", log.String())
		}
		return rss, cpu, err
	}
	select {
	case a := <-addr:
		t.base = "http://" + a
		return t, nil
	case <-logClosed:
		return nil, fmt.Errorf("dgs-api exited before serving (%v):\n%s", cmd.Wait(), log.String())
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		<-logClosed
		return nil, fmt.Errorf("dgs-api did not report its address (%v):\n%s", cmd.Wait(), log.String())
	}
}

// startInProcess wires the server exactly as cmd/dgs-api does with its
// default flags, behind a middleware that records one span per handler.
func startInProcess(r *run) (*target, error) {
	snap, err := serve.NewSnapshot(serverWorld(r))
	if err != nil {
		return nil, err
	}
	store := serve.NewStore(snap, serve.StoreConfig{PlanHorizon: time.Hour})
	api := serve.NewWithSource(store, serve.Config{CacheEntries: 4096})
	inner := api.Handler()
	handler := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent, _ := strconv.Atoi(req.Header.Get(spanHeader))
		name := "serve.handler"
		switch req.URL.Path {
		case "/v2/updates":
			name = "serve.apply"
		case "/v2/plan/stream":
			name = "serve.stream" // open for the whole run
		}
		id := r.tr.begin(name, parent)
		inner.ServeHTTP(w, req)
		r.tr.end(id)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: handler}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t := &target{base: "http://" + ln.Addr().String(), client: newClient(), tr: r.tr}
	t.stop = func() (float64, time.Duration, error) {
		t.client.CloseIdleConnections()
		store.Close() // ends the plan streams, so Shutdown can drain
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		<-served
		rss, cpu := selfUsage()
		return rss, cpu, err
	}
	return t, nil
}

// reply is one completed request.
type reply struct {
	status  int
	body    []byte
	header  http.Header
	latency time.Duration
	err     error
}

// conn is one requesting connection of the load generator. It reads every
// body into one reused buffer: allocating 27 KB per reply made the
// generator's own garbage collector a tenth of the load on a two-core box.
type conn struct {
	t   *target
	buf bytes.Buffer
}

// do issues one request and reads the whole body; reply.body is valid until
// the connection's next request. On a traced run it opens the request's
// root span and passes its id to the server.
func (c *conn) do(method, path string, header map[string]string, body []byte) reply {
	t := c.t
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, t.base+path, rd)
	if err != nil {
		return reply{err: err}
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	id := t.tr.begin("client.request", 0)
	if id != 0 {
		req.Header.Set(spanHeader, strconv.Itoa(id))
	}
	t0 := time.Now()
	resp, err := t.client.Do(req)
	if err != nil {
		t.tr.end(id)
		return reply{err: err, latency: time.Since(t0)}
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	t.tr.end(id)
	return reply{status: resp.StatusCode, body: c.buf.Bytes(), header: resp.Header, latency: d, err: err}
}

func (c *conn) get(path string) reply { return c.do(http.MethodGet, path, nil, nil) }

// do and get are one-off requests on a connection of their own: the caller
// owns the body.
func (t *target) do(method, path string, header map[string]string, body []byte) reply {
	return (&conn{t: t}).do(method, path, header, body)
}

func (t *target) get(path string) reply { return t.do(http.MethodGet, path, nil, nil) }

// endpointVars is one endpoint's counters in /debug/vars.
type endpointVars struct {
	Hits, Misses, Dedups, Rejected, Errors int64
}

// serverVars is the part of /debug/vars the benchmark reads.
type serverVars struct {
	Passes, Plan, Linkbudget, Updates endpointVars
	WorldsRetired                     int64 `json:"worlds_retired"`
	Epoch                             uint64
}

func (t *target) vars() (serverVars, error) {
	rep := t.get("/debug/vars")
	if rep.err != nil || rep.status != http.StatusOK {
		return serverVars{}, fmt.Errorf("/debug/vars: status %d, %v", rep.status, rep.err)
	}
	var v struct {
		API serverVars `json:"dgs_api"`
	}
	err := json.Unmarshal(rep.body, &v)
	return v.API, err
}

// population asks the server how many satellites and stations it serves.
func (t *target) population() (sats, stations int, err error) {
	rep := t.get("/v1/healthz")
	if rep.err != nil || rep.status != http.StatusOK {
		return 0, 0, fmt.Errorf("/v1/healthz: status %d, %v", rep.status, rep.err)
	}
	var h struct{ Sats, Stations int }
	err = json.Unmarshal(rep.body, &h)
	return h.Sats, h.Stations, err
}

// cacheHitShare is the share of cacheable requests (passes and plan; link
// budgets are never cached) answered from the response LRU between two
// readings of the counters.
func cacheHitShare(a, b serverVars) float64 {
	hits := (b.Passes.Hits - a.Passes.Hits) + (b.Plan.Hits - a.Plan.Hits)
	misses := (b.Passes.Misses - a.Passes.Misses) + (b.Plan.Misses - a.Plan.Misses)
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// serveWorkload is the life of a serve workload: start the server (timed),
// run body against it, stop it and record what it used, then, on a traced
// run, the serving layers' probes.
func serveWorkload(r *run, body func(t *target) error) error {
	t, err := setupTarget(r)
	if err != nil {
		return err
	}
	if err := body(t); err != nil {
		t.stop()
		return err
	}
	var stopErr error
	r.serverRSS, r.serverCPU, stopErr = t.stop()
	r.check(stopErr == nil, "server shutdown: %v", stopErr)
	if r.tr == nil {
		return nil
	}
	r.overhead()
	return serveProbes(r)
}

// setupTarget measures server start-up several times and keeps the last
// server running for the workload.
func setupTarget(r *run) (*target, error) {
	if r.tr == nil {
		if err := buildServer(r); err != nil {
			return nil, err
		}
	}
	var setups []float64
	var t *target
	for i := 0; i < r.sz.serverSetups; i++ {
		if t != nil {
			if _, _, err := t.stop(); err != nil {
				return nil, err
			}
		}
		var d time.Duration
		var err error
		if t, d, err = startTarget(r); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	r.set("setup_s", median(setups), len(setups))
	return t, nil
}
