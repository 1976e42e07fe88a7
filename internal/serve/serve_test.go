package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"c4"
)

// client is a minimal typed wrapper over the API for tests.
type client struct {
	t    *testing.T
	base string
	hc   *http.Client
}

func newTestServer(t *testing.T, cfg Config) (*client, *Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &client{t: t, base: ts.URL, hc: ts.Client()}, srv
}

func (c *client) do(method, path string, body any) (int, []byte) {
	c.t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			c.t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return resp.StatusCode, data
}

func (c *client) create(spec c4.SessionSpec) Status {
	c.t.Helper()
	code, body := c.do("POST", "/v1/sessions", spec)
	if code != http.StatusCreated {
		c.t.Fatalf("create: %d %s", code, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		c.t.Fatal(err)
	}
	return st
}

func (c *client) run(id string) Status {
	c.t.Helper()
	code, body := c.do("POST", "/v1/sessions/"+id+"/run", nil)
	if code != http.StatusAccepted {
		c.t.Fatalf("run %s: %d %s", id, code, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		c.t.Fatal(err)
	}
	return st
}

func (c *client) status(id string) Status {
	c.t.Helper()
	code, body := c.do("GET", "/v1/sessions/"+id, nil)
	if code != http.StatusOK {
		c.t.Fatalf("status %s: %d %s", id, code, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		c.t.Fatal(err)
	}
	return st
}

// waitDone polls until the session leaves the running/created states.
func (c *client) waitDone(id string) Status {
	c.t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := c.status(id)
		if st.State != StateRunning && st.State != StateCreated {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	c.t.Fatalf("session %s did not finish", id)
	return Status{}
}

// stream subscribes to the SSE endpoint and returns the concatenated
// JSONL payload (reconstructing each line's trailing newline) plus the
// end event's JSON.
func (c *client) stream(id string) (jsonl []byte, end string) {
	c.t.Helper()
	resp, err := c.hc.Get(c.base + "/v1/sessions/" + id + "/stream")
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		c.t.Fatalf("stream %s: %d %s", id, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		c.t.Fatalf("stream content type %q", ct)
	}
	var buf bytes.Buffer
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	ended := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: end":
			ended = true
		case strings.HasPrefix(line, "data: "):
			if ended {
				return buf.Bytes(), strings.TrimPrefix(line, "data: ")
			}
			buf.WriteString(strings.TrimPrefix(line, "data: "))
			buf.WriteByte('\n')
		}
	}
	c.t.Fatalf("stream %s closed without end event: %v", id, sc.Err())
	return nil, ""
}

func jobSpec(seed int64) c4.SessionSpec {
	return c4.SessionSpec{
		Seed: seed,
		Job:  &c4.SessionJob{Model: "gpt22b", Fault: "straggler", HorizonS: 120},
	}
}

// oneShot runs the same spec directly through c4.Session with a
// StreamWriter — the `c4 sim -telemetry-out` path — for comparison.
func oneShot(t *testing.T, spec c4.SessionSpec) (map[string]float64, []byte) {
	t.Helper()
	var buf bytes.Buffer
	sess, err := c4.NewSession(c4.SessionOptions{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	w := c4.NewTelemetryStreamWriter(&buf)
	sess.AttachSink(w)
	if err := sess.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return sess.Metrics(), buf.Bytes()
}

// TestSessionLifecycle drives one session create -> run -> stream ->
// status -> delete over real HTTP and checks the streamed telemetry is
// byte-identical to a one-shot run of the same spec.
func TestSessionLifecycle(t *testing.T) {
	cl, _ := newTestServer(t, Config{})
	st := cl.create(jobSpec(3))
	if st.State != StateCreated {
		t.Fatalf("created state = %s", st.State)
	}
	cl.run(st.ID)
	jsonl, end := cl.stream(st.ID) // follows live, returns at end event
	final := cl.waitDone(st.ID)
	if final.State != StateDone {
		t.Fatalf("final state = %s (%s)", final.State, final.Error)
	}
	if final.Metrics["iterations"] <= 0 {
		t.Fatalf("metrics = %v", final.Metrics)
	}
	if !strings.Contains(end, fmt.Sprintf(`"records": %d`, final.Records)) {
		t.Fatalf("end event %q does not match %d records", end, final.Records)
	}

	wantMetrics, wantStream := oneShot(t, jobSpec(3))
	if !bytes.Equal(jsonl, wantStream) {
		t.Fatalf("served stream differs from one-shot run (%d vs %d bytes)", len(jsonl), len(wantStream))
	}
	for k, v := range wantMetrics {
		if final.Metrics[k] != v {
			t.Fatalf("metric %s: served %v, one-shot %v", k, final.Metrics[k], v)
		}
	}

	if code, _ := cl.do("DELETE", "/v1/sessions/"+st.ID, nil); code != http.StatusNoContent {
		t.Fatalf("delete: %d", code)
	}
	if code, _ := cl.do("GET", "/v1/sessions/"+st.ID, nil); code != http.StatusNotFound {
		t.Fatalf("status after delete: %d", code)
	}
}

// TestConcurrentSessionsByteIdentical runs 8 sessions concurrently (two
// seeds × four replicas) and checks every replica's stream matches its
// seed's one-shot reference — session isolation under load.
func TestConcurrentSessionsByteIdentical(t *testing.T) {
	cl, _ := newTestServer(t, Config{MaxRunning: 8})
	want := map[int64][]byte{}
	for _, seed := range []int64{1, 2} {
		_, stream := oneShot(t, jobSpec(seed))
		want[seed] = stream
	}

	type result struct {
		seed  int64
		jsonl []byte
	}
	results := make(chan result, 8)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		seed := int64(1 + i%2)
		st := cl.create(jobSpec(seed))
		cl.run(st.ID)
		wg.Add(1)
		go func(id string, seed int64) {
			defer wg.Done()
			jsonl, _ := cl.stream(id)
			results <- result{seed, jsonl}
		}(st.ID, seed)
	}
	wg.Wait()
	close(results)
	n := 0
	for r := range results {
		n++
		if !bytes.Equal(r.jsonl, want[r.seed]) {
			t.Fatalf("concurrent session (seed %d) stream diverged from one-shot", r.seed)
		}
	}
	if n != 8 {
		t.Fatalf("got %d streams, want 8", n)
	}
}

// TestAdmissionControl checks both caps: the running cap answers 429,
// and a full table of unevictable sessions answers 503 (while a table
// with finished sessions evicts and admits).
func TestAdmissionControl(t *testing.T) {
	cl, _ := newTestServer(t, Config{MaxSessions: 2, MaxRunning: 1})

	// Fill the table with two created (unevictable) sessions.
	a := cl.create(jobSpec(1))
	b := cl.create(jobSpec(2))
	if code, body := cl.do("POST", "/v1/sessions", jobSpec(3)); code != http.StatusServiceUnavailable {
		t.Fatalf("create over cap: %d %s", code, body)
	}

	// Start one; the second start must bounce off the running cap.
	cl.run(a.ID)
	if code, body := cl.do("POST", "/v1/sessions/"+b.ID+"/run", nil); code != http.StatusTooManyRequests {
		t.Fatalf("run over cap: %d %s", code, body)
	}
	if st := cl.waitDone(a.ID); st.State != StateDone {
		t.Fatalf("first session: %s (%s)", st.State, st.Error)
	}

	// a is terminal now: the next create evicts it and is admitted.
	c := cl.create(jobSpec(4))
	if code, _ := cl.do("GET", "/v1/sessions/"+a.ID, nil); code != http.StatusNotFound {
		t.Fatalf("evicted session still present: %d", code)
	}
	if code, _ := cl.do("GET", "/v1/sessions/"+c.ID, nil); code != http.StatusOK {
		t.Fatalf("admitted session missing: %d", code)
	}

	// Invalid specs are rejected at the door.
	if code, _ := cl.do("POST", "/v1/sessions",
		c4.SessionSpec{Job: &c4.SessionJob{Model: "gpt9000"}}); code != http.StatusBadRequest {
		t.Fatalf("bad spec: %d", code)
	}
	if code, _ := cl.do("POST", "/v1/sessions/"+b.ID+"/run", nil); code != http.StatusAccepted {
		t.Fatal("second session should start once the cap frees")
	}
	cl.waitDone(b.ID)
}

// TestCreateRejectsUnrunnableSpecs: specs whose run would panic — a fault
// victim outside the fabric, an instant past the simulated clock's range
// — are refused at the door, so no /run can take the daemon down.
func TestCreateRejectsUnrunnableSpecs(t *testing.T) {
	cl, _ := newTestServer(t, Config{})
	for _, body := range []string{
		`{"job": {"fault": "nic", "victim": 99}}`,
		`{"job": {"fault": "crash", "fault_at_s": 1e30}}`,
	} {
		if code, resp := cl.do("POST", "/v1/sessions", json.RawMessage(body)); code != http.StatusBadRequest {
			t.Errorf("POST %s: %d %s, want 400", body, code, resp)
		}
	}
}

// TestDeleteCancelsRunningSession checks DELETE on a mid-run session
// cancels it cooperatively and removes it.
func TestDeleteCancelsRunningSession(t *testing.T) {
	cl, srv := newTestServer(t, Config{})
	spec := jobSpec(1)
	spec.Job.HorizonS = 1e9 // would run far beyond the test budget
	st := cl.create(spec)
	cl.run(st.ID)
	time.Sleep(30 * time.Millisecond) // let the run get going
	start := time.Now()
	if code, body := cl.do("DELETE", "/v1/sessions/"+st.ID, nil); code != http.StatusNoContent {
		t.Fatalf("delete running: %d %s", code, body)
	}
	if took := time.Since(start); took > 30*time.Second {
		t.Fatalf("cancellation took %v", took)
	}
	if code, _ := cl.do("GET", "/v1/sessions/"+st.ID, nil); code != http.StatusNotFound {
		t.Fatal("deleted session still present")
	}
	// The run goroutine must be gone: Shutdown returns immediately.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown after delete: %v", err)
	}
}

// TestShutdownDrains checks graceful shutdown waits for an in-flight run
// and then refuses new work.
func TestShutdownDrains(t *testing.T) {
	cl, srv := newTestServer(t, Config{})
	st := cl.create(jobSpec(1))
	cl.run(st.ID)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if got := cl.status(st.ID).State; got != StateDone {
		t.Fatalf("state after drain = %s", got)
	}
	if code, _ := cl.do("POST", "/v1/sessions", jobSpec(2)); code != http.StatusServiceUnavailable {
		t.Fatal("create after shutdown should be refused")
	}
}

func TestStreamLimitTruncates(t *testing.T) {
	cl, _ := newTestServer(t, Config{StreamLimit: 4096})
	st := cl.create(jobSpec(1))
	cl.run(st.ID)
	final := cl.waitDone(st.ID)
	if !final.Truncated {
		t.Fatalf("4 KiB budget should truncate a job stream: %+v", final)
	}
	_, end := cl.stream(st.ID)
	if !strings.Contains(end, `"truncated": true`) {
		t.Fatalf("end event %q should flag truncation", end)
	}
}
