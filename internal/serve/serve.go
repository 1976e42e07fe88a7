// Package serve is the simulation-as-a-service plane: an HTTP/JSON
// session API over the shared c4.Session lifecycle. The daemon
// (`c4 serve`) mounts Server on a listener; every endpoint manipulates
// one bounded table of isolated sessions, so N clients can create, run,
// stream and tear down simulations concurrently while each session's
// metrics and telemetry stay byte-identical to a one-shot `c4 sim` run of
// the same spec and seed.
//
// Endpoints:
//
//	POST   /v1/sessions             create a session from a JSON spec
//	GET    /v1/sessions             list sessions
//	GET    /v1/sessions/{id}        status + metrics
//	POST   /v1/sessions/{id}/run    start the run (async)
//	GET    /v1/sessions/{id}/stream live telemetry as SSE (JSONL payloads)
//	DELETE /v1/sessions/{id}        cancel if running, then remove
//	GET    /healthz                 liveness probe
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"c4"
)

// Config bounds the serving plane.
type Config struct {
	// MaxSessions caps the session table; creating past the cap evicts
	// the least-recently-touched finished session, and answers 503 when
	// every entry is still created/running. Default 32.
	MaxSessions int
	// MaxRunning caps concurrently running sessions; starts past the cap
	// answer 429. Default 8.
	MaxRunning int
	// RunTimeout cancels any single run after this wall-clock duration
	// (0 = no timeout).
	RunTimeout time.Duration
	// StreamLimit is the per-session telemetry retention budget in bytes;
	// past it records are dropped and the stream marked truncated.
	// Default 64 MiB.
	StreamLimit int
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 32
	}
	if c.MaxRunning <= 0 {
		c.MaxRunning = 8
	}
	if c.StreamLimit <= 0 {
		c.StreamLimit = 64 << 20
	}
	return c
}

// Session lifecycle states, as reported by the API.
const (
	StateCreated   = "created"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// session is one table entry.
type session struct {
	id    string
	spec  c4.SessionSpec
	sess  *c4.Session
	hub   *hub
	state string
	err   string

	cancel context.CancelFunc
	done   chan struct{} // closed when the run goroutine exits
	touch  uint64        // eviction order (monotonic, not wall clock)
}

// counters is the Prometheus-exposed operational state, guarded by
// Server.mu except sseBytes, which streaming handlers bump outside the
// lock. Gauges (per-state session counts, live subscribers) are computed
// at scrape time from the table itself so they can never drift.
type counters struct {
	created  uint64
	evicted  uint64
	rejected map[string]uint64 // admission refusals by reason
	runs     map[string]uint64 // finished runs by outcome state
	// retiredDropped accumulates the dropped-line counts of hubs whose
	// sessions were evicted or deleted, so the totals survive removal.
	retiredDropped uint64
	sseBytes       atomic.Uint64
}

// Admission-rejection reasons and the metric's fixed label order.
var rejectReasons = []string{"conflict", "draining", "run_cap", "table_full"}

// Server is the session table plus its HTTP surface.
type Server struct {
	cfg Config

	mu       sync.Mutex
	sessions map[string]*session
	nextID   uint64
	clock    uint64 // touch counter
	running  int
	draining bool
	ctrs     counters
	wg       sync.WaitGroup
}

// New creates a Server.
func New(cfg Config) *Server {
	return &Server{
		cfg:      cfg.withDefaults(),
		sessions: map[string]*session{},
		ctrs: counters{
			rejected: map[string]uint64{},
			runs:     map[string]uint64{},
		},
	}
}

// reject counts an admission refusal and answers it. Callers hold s.mu.
func (s *Server) rejectLocked(w http.ResponseWriter, reason string, code int, format string, args ...any) {
	s.ctrs.rejected[reason]++
	fail(w, code, format, args...)
}

// Handler mounts the API routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	mux.HandleFunc("GET /v1/sessions", s.handleList)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleStatus)
	mux.HandleFunc("POST /v1/sessions/{id}/run", s.handleRun)
	mux.HandleFunc("GET /v1/sessions/{id}/stream", s.handleStream)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDelete)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// OpsHandler mounts the operational endpoints kept off the public API
// mux — runtime profiling and a second /metrics — so exposing pprof is
// an explicit opt-in (`c4 serve -ops`) rather than a side effect of
// serving sessions.
func (s *Server) OpsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// handleMetrics renders the Prometheus text exposition format with the
// standard library only: every series is written in a fixed order with
// fixed label sets, so two scrapes of the same state are byte-identical.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	created, evicted := s.ctrs.created, s.ctrs.evicted
	rejected := make(map[string]uint64, len(rejectReasons))
	for _, reason := range rejectReasons {
		rejected[reason] = s.ctrs.rejected[reason]
	}
	runs := map[string]uint64{}
	for _, outcome := range []string{StateDone, StateFailed, StateCancelled} {
		runs[outcome] = s.ctrs.runs[outcome]
	}
	states := map[string]int{}
	var subs int
	dropped := s.ctrs.retiredDropped
	for _, e := range s.sessions {
		states[e.state]++
		_, d, su, _ := e.hub.stats()
		dropped += uint64(d)
		subs += su
	}
	s.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }
	p("# HELP c4serve_sessions_created_total Sessions admitted to the table.\n")
	p("# TYPE c4serve_sessions_created_total counter\n")
	p("c4serve_sessions_created_total %d\n", created)
	p("# HELP c4serve_sessions_evicted_total Finished sessions evicted to admit new ones.\n")
	p("# TYPE c4serve_sessions_evicted_total counter\n")
	p("c4serve_sessions_evicted_total %d\n", evicted)
	p("# HELP c4serve_admission_rejected_total Requests refused by admission control.\n")
	p("# TYPE c4serve_admission_rejected_total counter\n")
	for _, reason := range rejectReasons {
		p("c4serve_admission_rejected_total{reason=%q} %d\n", reason, rejected[reason])
	}
	p("# HELP c4serve_runs_total Finished session runs by outcome.\n")
	p("# TYPE c4serve_runs_total counter\n")
	for _, outcome := range []string{StateCancelled, StateDone, StateFailed} {
		p("c4serve_runs_total{outcome=%q} %d\n", outcome, runs[outcome])
	}
	p("# HELP c4serve_sessions Sessions currently in the table by state.\n")
	p("# TYPE c4serve_sessions gauge\n")
	for _, state := range []string{StateCancelled, StateCreated, StateDone, StateFailed, StateRunning} {
		p("c4serve_sessions{state=%q} %d\n", state, states[state])
	}
	p("# HELP c4serve_sse_subscribers Telemetry stream subscribers currently connected.\n")
	p("# TYPE c4serve_sse_subscribers gauge\n")
	p("c4serve_sse_subscribers %d\n", subs)
	p("# HELP c4serve_sse_bytes_total Telemetry bytes written to SSE subscribers.\n")
	p("# TYPE c4serve_sse_bytes_total counter\n")
	p("c4serve_sse_bytes_total %d\n", s.ctrs.sseBytes.Load())
	p("# HELP c4serve_sse_dropped_total Telemetry lines dropped by per-session retention budgets.\n")
	p("# TYPE c4serve_sse_dropped_total counter\n")
	p("c4serve_sse_dropped_total %d\n", dropped)
}

// Status is the JSON rendering of one session.
type Status struct {
	ID      string             `json:"id"`
	State   string             `json:"state"`
	Error   string             `json:"error,omitempty"`
	Summary string             `json:"summary,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Records counts retained telemetry records; Dropped the lines the
	// retention budget discarded; Truncated reports whether anything was
	// dropped at all. Subscribers counts the SSE streams currently
	// attached.
	Records     int  `json:"records"`
	Dropped     int  `json:"dropped,omitempty"`
	Subscribers int  `json:"subscribers,omitempty"`
	Truncated   bool `json:"truncated,omitempty"`
}

func (s *Server) status(e *session) Status {
	records, dropped, subscribers, truncated := e.hub.stats()
	return Status{
		ID: e.id, State: e.state, Error: e.err,
		Summary: e.sess.Summary(), Metrics: e.sess.Metrics(),
		Records: records, Dropped: dropped,
		Subscribers: subscribers, Truncated: truncated,
	}
}

type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func fail(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// handleCreate admits a new session: parse and validate the spec (the
// whole spec — a bad model name fails here, not mid-run), evict the
// stalest finished entry if the table is full, and park the session in
// state created with its stream hub already attached.
func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	spec, err := c4.DecodeSessionSpec(http.MaxBytesReader(w, r.Body, 8<<20))
	if err != nil {
		fail(w, http.StatusBadRequest, "decoding session spec: %v", err)
		return
	}
	sess, err := c4.NewSession(c4.SessionOptions{Spec: spec})
	if err != nil {
		fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	h := newHub(s.cfg.StreamLimit)
	sess.AttachSink(h)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.rejectLocked(w, "draining", http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	if len(s.sessions) >= s.cfg.MaxSessions && !s.evictLocked() {
		s.rejectLocked(w, "table_full", http.StatusServiceUnavailable,
			"session table full (%d) and nothing evictable; delete or finish sessions", s.cfg.MaxSessions)
		return
	}
	s.ctrs.created++
	s.nextID++
	e := &session{
		id:    fmt.Sprintf("s%06d", s.nextID),
		spec:  spec,
		sess:  sess,
		hub:   h,
		state: StateCreated,
		done:  make(chan struct{}),
	}
	s.touchLocked(e)
	s.sessions[e.id] = e
	writeJSON(w, http.StatusCreated, s.status(e))
}

// evictLocked removes the least-recently-touched terminal session.
// Created and running sessions are never evicted — callers own their
// teardown — so a table of 32 still-pending sessions refuses admission
// rather than cancelling someone's work.
func (s *Server) evictLocked() bool {
	var victim *session
	for _, e := range s.sessions {
		switch e.state {
		case StateDone, StateFailed, StateCancelled:
			if victim == nil || e.touch < victim.touch {
				victim = e
			}
		}
	}
	if victim == nil {
		return false
	}
	victim.hub.Close()
	victim.sess.Close()
	s.retireLocked(victim)
	delete(s.sessions, victim.id)
	s.ctrs.evicted++
	return true
}

// retireLocked folds a departing session's drop count into the totals so
// /metrics counters never go backwards when entries leave the table.
func (s *Server) retireLocked(e *session) {
	_, dropped, _, _ := e.hub.stats()
	s.ctrs.retiredDropped += uint64(dropped)
}

// touchLocked stamps e as most recently used.
func (s *Server) touchLocked(e *session) {
	s.clock++
	e.touch = s.clock
}

// get fetches and LRU-touches a session.
func (s *Server) get(id string) (*session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.sessions[id]
	if ok {
		s.touchLocked(e)
	}
	return e, ok
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	entries := make([]Status, 0, len(s.sessions))
	for _, e := range s.sessions {
		entries = append(entries, s.status(e))
	}
	s.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].ID < entries[j].ID })
	writeJSON(w, http.StatusOK, map[string]any{"sessions": entries})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	e, ok := s.get(r.PathValue("id"))
	if !ok {
		fail(w, http.StatusNotFound, "no session %q", r.PathValue("id"))
		return
	}
	s.mu.Lock()
	st := s.status(e)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// handleRun starts the session's run on its own goroutine under a
// cancellable (and optionally deadlined) context, subject to the
// concurrent-run admission cap.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	e, ok := s.get(r.PathValue("id"))
	if !ok {
		fail(w, http.StatusNotFound, "no session %q", r.PathValue("id"))
		return
	}
	s.mu.Lock()
	if s.draining {
		s.rejectLocked(w, "draining", http.StatusServiceUnavailable, "server is shutting down")
		s.mu.Unlock()
		return
	}
	if e.state != StateCreated {
		s.rejectLocked(w, "conflict", http.StatusConflict, "session %s is %s; sessions run at most once", e.id, e.state)
		s.mu.Unlock()
		return
	}
	if s.running >= s.cfg.MaxRunning {
		s.rejectLocked(w, "run_cap", http.StatusTooManyRequests,
			"%d sessions already running (cap %d); retry after one finishes", s.cfg.MaxRunning, s.cfg.MaxRunning)
		s.mu.Unlock()
		return
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if s.cfg.RunTimeout > 0 {
		//c4vet:allow ctxleak session runs deliberately outlive the POST that starts them; DELETE and Shutdown cancel via e.cancel
		ctx, cancel = context.WithTimeout(context.Background(), s.cfg.RunTimeout)
	} else {
		//c4vet:allow ctxleak same detach as above for the no-timeout configuration
		ctx, cancel = context.WithCancel(context.Background())
	}
	e.state = StateRunning
	e.cancel = cancel
	s.running++
	s.wg.Add(1)
	s.mu.Unlock()

	go func() {
		defer s.wg.Done()
		err := e.sess.Run(ctx)
		cancel()
		e.hub.Close()
		s.mu.Lock()
		s.running--
		switch {
		case err == nil:
			e.state = StateDone
		case errors.Is(err, context.Canceled):
			e.state = StateCancelled
			e.err = err.Error()
		default:
			e.state = StateFailed
			e.err = err.Error()
		}
		s.ctrs.runs[e.state]++
		s.mu.Unlock()
		close(e.done)
	}()

	s.mu.Lock()
	st := s.status(e)
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, st)
}

// handleStream serves the session's telemetry as Server-Sent Events: one
// `data:` event per JSONL record (payload byte-identical to the `c4 sim
// -telemetry-out` line), replayed from the first record and followed live,
// closing with an `event: end` carrying the record count. Subscribing to
// a session that never runs blocks until it runs or is deleted.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	e, ok := s.get(r.PathValue("id"))
	if !ok {
		fail(w, http.StatusNotFound, "no session %q", r.PathValue("id"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		fail(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	unsubscribe := e.hub.subscribe()
	defer unsubscribe()
	var sent uint64
	defer func() { s.ctrs.sseBytes.Add(sent) }()

	at := 0
	for {
		lines, next, done, wake := e.hub.next(at)
		for _, line := range lines {
			// line carries its trailing newline; SSE data frames must not,
			// so trim it and close the event with the blank line.
			n, _ := fmt.Fprintf(w, "data: %s\n\n", line[:len(line)-1])
			sent += uint64(n)
		}
		if len(lines) > 0 {
			fl.Flush()
		}
		at = next
		if done {
			records, dropped, _, truncated := e.hub.stats()
			n, _ := fmt.Fprintf(w, "event: end\ndata: {\"records\": %d, \"dropped\": %d, \"truncated\": %t}\n\n",
				records, dropped, truncated)
			sent += uint64(n)
			fl.Flush()
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

// handleDelete cancels the session if it is running, waits for the run
// goroutine to unwind, and removes the entry.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	e, ok := s.get(r.PathValue("id"))
	if !ok {
		fail(w, http.StatusNotFound, "no session %q", r.PathValue("id"))
		return
	}
	s.mu.Lock()
	running := e.state == StateRunning
	cancel := e.cancel
	s.mu.Unlock()
	if running && cancel != nil {
		cancel()
		select {
		case <-e.done:
		case <-r.Context().Done():
			fail(w, http.StatusGatewayTimeout, "session %s did not stop before the client gave up", e.id)
			return
		}
	}
	s.mu.Lock()
	e.hub.Close()
	e.sess.Close()
	s.retireLocked(e)
	delete(s.sessions, e.id)
	s.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// Shutdown drains the server: new creates and runs are refused
// immediately, in-flight runs get until ctx expires to finish, then are
// cancelled and awaited. Always returns with every run goroutine stopped.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	finished := make(chan struct{})
	go func() { s.wg.Wait(); close(finished) }()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
	}
	s.mu.Lock()
	for _, e := range s.sessions {
		if e.cancel != nil {
			e.cancel()
		}
	}
	s.mu.Unlock()
	<-finished
	return ctx.Err()
}
