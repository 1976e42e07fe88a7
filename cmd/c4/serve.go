package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"c4"
	"c4/internal/serve"
)

// runServe is `c4 serve`, the simulation-as-a-service daemon: it exposes
// the c4.Session lifecycle over a REST/JSON API so clients create, run,
// stream and tear down simulated training runs over HTTP instead of
// shelling out to `c4 sim`. Sessions are isolated and deterministic — a
// served session's metrics and telemetry are byte-identical to a
// one-shot `c4 sim` run of the same spec and seed — and the table is
// bounded (LRU eviction of finished sessions, admission control on
// concurrent runs).
//
//	c4 serve -addr :8080
//	curl -s localhost:8080/v1/sessions -d '{"seed": 1, "job": {"model": "gpt22b", "fault": "straggler"}}'
//	curl -s -X POST localhost:8080/v1/sessions/s000001/run
//	curl -N  localhost:8080/v1/sessions/s000001/stream   # live SSE
//	curl -s  localhost:8080/v1/sessions/s000001          # status + metrics
//	curl -s -X DELETE localhost:8080/v1/sessions/s000001
//
// See the README's Serving section for the session-spec schema.
func runServe(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("serve", stderr)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		maxSess    = fs.Int("max-sessions", 32, "session table capacity (finished sessions are evicted LRU)")
		maxRun     = fs.Int("max-running", 8, "concurrently running sessions before 429")
		runTimeout = fs.Duration("run-timeout", 0, "per-session run timeout (0 = none)")
		streamMiB  = fs.Int("stream-limit-mib", 64, "per-session telemetry retention in MiB")
		drain      = fs.Duration("drain-timeout", 30*time.Second, "grace for in-flight runs on shutdown")
		opsAddr    = fs.String("ops", "", "also serve the operational plane (pprof + /metrics) on this address, e.g. 127.0.0.1:6060")
		quiet      = fs.Bool("quiet", false, "suppress per-request access logs")
		smoke      = fs.Bool("smoke", false, "self-test: serve on loopback, drive one session over HTTP+SSE, diff against a one-shot run, exit")
	)
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}

	cfg := serve.Config{
		MaxSessions: *maxSess,
		MaxRunning:  *maxRun,
		RunTimeout:  *runTimeout,
		StreamLimit: *streamMiB << 20,
	}
	if *smoke {
		return runSmoke(cfg, stdout, stderr)
	}

	logger := log.New(stderr, "", log.LstdFlags)
	srv := serve.New(cfg)
	handler := http.Handler(srv.Handler())
	if !*quiet {
		handler = serve.AccessLog(stderr, handler)
	}
	hs := &http.Server{Addr: *addr, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	if *opsAddr != "" {
		ops := &http.Server{Addr: *opsAddr, Handler: srv.OpsHandler()}
		go func() {
			if err := ops.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Printf("c4 serve: ops plane: %v", err)
			}
		}()
		defer ops.Shutdown(context.Background())
		logger.Printf("c4 serve ops plane (pprof, /metrics) on %s", *opsAddr)
	}
	logger.Printf("c4 serve listening on %s (sessions %d, running %d)", *addr, *maxSess, *maxRun)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	select {
	case err := <-errc:
		logger.Printf("c4 serve: %v", err)
		return 1
	case sig := <-sigc:
		logger.Printf("c4 serve: %v, draining (grace %v)", sig, *drain)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Printf("c4 serve: drain incomplete: %v", err)
	}
	hs.Shutdown(context.Background())
	return 0
}

// smokeSpec is the session the smoke test drives: short enough for CI,
// long enough to stream a non-trivial record volume.
func smokeSpec() c4.SessionSpec {
	return c4.SessionSpec{
		Seed: 1,
		Job:  &c4.SessionJob{Model: "gpt22b", Fault: "straggler", HorizonS: 120},
	}
}

// runSmoke boots the daemon on a loopback listener inside this process,
// drives one full session over real HTTP — create, run, SSE stream,
// status, delete — and diffs the streamed telemetry byte-for-byte
// against a direct c4.Session run writing through the c4 sim
// -telemetry-out path. It is the hermetic serving e2e `make serve-smoke`
// runs in CI: no curl, no fixed port, no leftover process.
func runSmoke(cfg serve.Config, stdout, stderr io.Writer) int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "c4 serve -smoke: "+format+"\n", args...)
		return 1
	}

	// Reference: the one-shot CLI path (Session + JSONL StreamWriter).
	var want bytes.Buffer
	sess, err := c4.NewSession(c4.SessionOptions{Spec: smokeSpec()})
	if err != nil {
		return fail("building reference session: %v", err)
	}
	w := c4.NewTelemetryStreamWriter(&want)
	sess.AttachSink(w)
	if err := sess.Run(context.Background()); err != nil {
		return fail("reference run: %v", err)
	}
	if err := w.Flush(); err != nil {
		return fail("reference stream: %v", err)
	}
	wantMetrics := sess.Metrics()
	sess.Close()

	// Daemon on loopback.
	srv := serve.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail("listen: %v", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Shutdown(context.Background())
	base := "http://" + ln.Addr().String()

	post := func(path string, body []byte) (serve.Status, error) {
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return serve.Status{}, err
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode >= 300 {
			return serve.Status{}, fmt.Errorf("%s: %d %s", path, resp.StatusCode, data)
		}
		var st serve.Status
		return st, json.Unmarshal(data, &st)
	}

	spec, _ := json.Marshal(smokeSpec())
	st, err := post("/v1/sessions", spec)
	if err != nil {
		return fail("create: %v", err)
	}
	if _, err := post("/v1/sessions/"+st.ID+"/run", nil); err != nil {
		return fail("run: %v", err)
	}

	// Follow the SSE stream to the end event, reassembling JSONL.
	resp, err := http.Get(base + "/v1/sessions/" + st.ID + "/stream")
	if err != nil {
		return fail("stream: %v", err)
	}
	defer resp.Body.Close()
	var got bytes.Buffer
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	ended := false
streamLoop:
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: end":
			ended = true
		case strings.HasPrefix(line, "data: "):
			if ended {
				break streamLoop // the end event's payload
			}
			got.WriteString(strings.TrimPrefix(line, "data: "))
			got.WriteByte('\n')
		}
	}
	if err := sc.Err(); err != nil || !ended {
		return fail("stream ended badly: err=%v ended=%t", err, ended)
	}

	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		return fail("served stream (%d bytes) differs from one-shot -telemetry-out stream (%d bytes)",
			got.Len(), want.Len())
	}

	// Status must agree with the one-shot metrics exactly.
	sresp, err := http.Get(base + "/v1/sessions/" + st.ID)
	if err != nil {
		return fail("status: %v", err)
	}
	data, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	var final serve.Status
	if err := json.Unmarshal(data, &final); err != nil {
		return fail("status decode: %v", err)
	}
	if final.State != serve.StateDone {
		return fail("final state %s (%s)", final.State, final.Error)
	}
	for k, v := range wantMetrics {
		if final.Metrics[k] != v {
			return fail("metric %s: served %v, one-shot %v", k, final.Metrics[k], v)
		}
	}

	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/sessions/"+st.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fail("delete: %v", err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		return fail("delete: %d", dresp.StatusCode)
	}
	if err := srv.Shutdown(context.Background()); err != nil && !errors.Is(err, context.Canceled) {
		return fail("shutdown: %v", err)
	}
	fmt.Fprintf(stdout, "serve-smoke ok: %d records streamed over SSE, byte-identical to one-shot; metrics match (%d keys)\n",
		final.Records, len(wantMetrics))
	return 0
}
