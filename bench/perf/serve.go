package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"c4"
	"c4/internal/serve"
)

// serveOps are the HTTP calls of one served session, in order.
var serveOps = []string{"create", "run", "stream", "status", "delete"}

// serveBench drives a serve.Server on a loopback listener with closed-loop
// clients that run whole sessions.
type serveBench struct {
	clients int
	spec    []byte // the POST /v1/sessions body
	// want and wantMetrics are a one-shot c4.Session run of the same spec:
	// every served stream and status must equal them.
	want        []byte
	wantMetrics map[string]float64
	base        string
	client      *http.Client
	hs          *http.Server
	served      chan error
	srv         *serve.Server
}

func serveSpec(seed int64) c4.SessionSpec {
	return c4.SessionSpec{Seed: seed, Job: &c4.SessionJob{Model: "gpt22b", Fault: "straggler", HorizonS: 120}}
}

func newServeBench(ctx context.Context, c config) (bench, error) {
	spec := serveSpec(c.seed)
	want, wantMetrics, err := oneShot(ctx, spec)
	if err != nil {
		return nil, fmt.Errorf("reference session: %w", err)
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b := &serveBench{
		clients: c.size.clients, spec: body, want: want, wantMetrics: wantMetrics,
		base: "http://" + ln.Addr().String(),
		// One connection per client: each client sends its next request
		// only after the previous response is read to the end.
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: c.size.clients, MaxIdleConnsPerHost: c.size.clients}},
		srv:    serve.New(serve.Config{}),
		served: make(chan error, 1),
	}
	b.hs = &http.Server{Handler: b.srv.Handler()}
	go func() { b.served <- b.hs.Serve(ln) }()
	if _, err := b.session(ctx, newRecorder(false), 0); err != nil { // warm-up
		return nil, errors.Join(fmt.Errorf("warm-up session: %w", err), b.close())
	}
	return b, nil
}

// oneShot runs spec as a direct c4.Session writing the JSONL stream, the
// c4sim -telemetry-out path.
func oneShot(ctx context.Context, spec c4.SessionSpec) ([]byte, map[string]float64, error) {
	sess, err := c4.NewSession(c4.SessionOptions{Spec: spec})
	if err != nil {
		return nil, nil, err
	}
	defer sess.Close()
	var buf bytes.Buffer
	w := c4.NewTelemetryStreamWriter(&buf)
	sess.AttachSink(w)
	if err := sess.Run(ctx); err != nil {
		return nil, nil, err
	}
	if err := w.Flush(); err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), sess.Metrics(), nil
}

// run drives rounds until the deadline has passed, at least one: in each
// round every client runs one session, all at once, and the round ends
// when the last one does. A round is the workload's unit; between rounds
// nothing is in flight.
func (b *serveBench) run(ctx context.Context, rec *recorder, deadline time.Time) {
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		root := rec.begin(0, "bench", fmt.Sprintf("round %d", round))
		m := startMeter()
		errs := make([]error, b.clients)
		var wg sync.WaitGroup
		for i := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var ms float64
				if ms, errs[i] = b.session(ctx, rec, root); errs[i] == nil {
					rec.note("session_ms", ms)
				}
			}()
		}
		wg.Wait()
		u := m.stop(float64(b.clients))
		rec.end(root)
		rec.attempt(b.clients)
		failed := 0
		for _, err := range errs {
			if err != nil {
				failed++
			}
		}
		if failed > 0 {
			rec.fail(failed, "session: %v", errors.Join(errs...))
		} else {
			rec.unit("round", u)
		}
		rec.tick()
	}
}

// session runs one session through the API: create, run, stream the
// telemetry to the end, read the status, delete. It returns the host
// milliseconds the five calls took.
func (b *serveBench) session(ctx context.Context, rec *recorder, root int) (float64, error) {
	t0 := time.Now()
	call := func(op, method, path string, body []byte, wantCode int, read func(io.Reader) error) error {
		id := rec.begin(root, "serve", op)
		defer rec.end(id)
		req, err := http.NewRequestWithContext(ctx, method, b.base+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		resp, err := b.client.Do(req)
		if err != nil {
			return fmt.Errorf("%s: %w", op, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantCode {
			msg, _ := io.ReadAll(resp.Body)
			return fmt.Errorf("%s: status %d, want %d: %s", op, resp.StatusCode, wantCode, bytes.TrimSpace(msg))
		}
		if err := read(resp.Body); err != nil {
			return fmt.Errorf("%s: %w", op, err)
		}
		return nil
	}
	var st serve.Status
	decode := func(r io.Reader) error { return json.NewDecoder(r).Decode(&st) }
	if err := call("create", http.MethodPost, "/v1/sessions", b.spec, http.StatusCreated, decode); err != nil {
		return 0, err
	}
	path := "/v1/sessions/" + st.ID
	err := call("run", http.MethodPost, path+"/run", nil, http.StatusAccepted, decode)
	var sseBytes int
	if err == nil {
		err = call("stream", http.MethodGet, path+"/stream", nil, http.StatusOK, func(r io.Reader) error {
			n, err := b.checkStream(r)
			sseBytes = n
			return err
		})
	}
	if err == nil {
		err = call("status", http.MethodGet, path, nil, http.StatusOK, decode)
	}
	if err == nil {
		err = b.checkStatus(st)
	}
	// Delete even after a failure, so a failed session leaves the table.
	discard := func(r io.Reader) error { _, err := io.Copy(io.Discard, r); return err }
	if derr := call("delete", http.MethodDelete, path, nil, http.StatusNoContent, discard); err == nil {
		err = derr
	}
	if err != nil {
		return 0, err
	}
	rec.count("sessions", 1)
	rec.count("sse_bytes", float64(sseBytes))
	rec.count("records", float64(st.Records))
	return msSince(t0), nil
}

// checkStream reads an SSE telemetry stream to its end event and checks
// that the reassembled JSONL equals the one-shot stream byte for byte. It
// returns the SSE bytes read.
func (b *serveBench) checkStream(r io.Reader) (int, error) {
	cr := &countingReader{r: r}
	sc := bufio.NewScanner(cr)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	var got bytes.Buffer
	ended := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: end" {
			ended = true
			break
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			got.WriteString(data)
			got.WriteByte('\n')
		}
	}
	if err := sc.Err(); err != nil {
		return cr.n, err
	}
	if _, err := io.Copy(io.Discard, cr); err != nil { // the end event's payload
		return cr.n, err
	}
	if !ended {
		return cr.n, fmt.Errorf("stream closed before its end event")
	}
	if !bytes.Equal(got.Bytes(), b.want) {
		return cr.n, fmt.Errorf("streamed telemetry (%d bytes) differs from the one-shot stream (%d bytes)", got.Len(), len(b.want))
	}
	return cr.n, nil
}

func (b *serveBench) checkStatus(st serve.Status) error {
	if st.State != serve.StateDone {
		return fmt.Errorf("session %s is %s (%s)", st.ID, st.State, st.Error)
	}
	if !maps.Equal(st.Metrics, b.wantMetrics) {
		return fmt.Errorf("session %s metrics differ from the one-shot run", st.ID)
	}
	return nil
}

type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

func (b *serveBench) layerMetrics(rec *recorder) map[string]float64 {
	m := map[string]float64{
		"sim.events":      b.wantMetrics["sim_events"],
		"serve.sse_bytes": per(rec.counts["sse_bytes"], rec.counts["sessions"]),
		"serve.records":   per(rec.counts["records"], rec.counts["sessions"]),
	}
	for k, v := range b.detail(rec) {
		m[k] = v
	}
	for _, op := range serveOps {
		m["serve."+op+"_ms_p50"] = median(rec.spanMs("serve", op))
	}
	m["serve.stream_ms_p95"] = percentile(rec.spanMs("serve", "stream"), 95)
	return m
}

func (b *serveBench) detail(rec *recorder) map[string]float64 {
	return map[string]float64{
		"serve.session_ms_p50": median(rec.notes["session_ms"]),
		"serve.session_ms_p95": percentile(rec.notes["session_ms"], 95),
	}
}

func (b *serveBench) sizes() map[string]any {
	return map[string]any{
		"clients": b.clients, "spec": string(b.spec),
		"records": bytes.Count(b.want, []byte("\n")), "stream_bytes": len(b.want),
	}
}

func (b *serveBench) outputSHA() string {
	h := sha256.New()
	h.Write(b.want)
	keys := make([]string, 0, len(b.wantMetrics))
	for k := range b.wantMetrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%v\n", k, b.wantMetrics[k])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// close drains the session table, stops the HTTP server and waits for its
// serve loop to return.
func (b *serveBench) close() error {
	ctx := context.Background()
	err := b.srv.Shutdown(ctx)
	if herr := b.hs.Shutdown(ctx); err == nil {
		err = herr
	}
	if serr := <-b.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	b.client.CloseIdleConnections()
	return err
}
