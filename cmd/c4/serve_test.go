package main

import (
	"net/http"
	"testing"
)

// TestServeSmoke runs the daemon's self-test end to end: in-process
// loopback server, one session driven over HTTP + SSE, streamed bytes
// diffed against the one-shot path.
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("serving e2e in -short mode")
	}
	if code, _, stderr := runC4(t, "serve", "-smoke"); code != 0 {
		t.Fatalf("c4 serve -smoke: exit %d, want 0\n%s", code, stderr)
	}
}

// TestHTTPServerTimeouts pins the daemon's connection limits: slow or idle
// clients are cut off, but no write deadline cuts a long SSE stream.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(":0", http.NotFoundHandler())
	if hs.ReadHeaderTimeout != serveHeaderTimeout || hs.IdleTimeout != serveIdleTimeout || hs.WriteTimeout != 0 {
		t.Fatalf("ReadHeaderTimeout %v, IdleTimeout %v, WriteTimeout %v; want %v, %v, 0",
			hs.ReadHeaderTimeout, hs.IdleTimeout, hs.WriteTimeout, serveHeaderTimeout, serveIdleTimeout)
	}
	if serveHeaderTimeout <= 0 || serveIdleTimeout <= 0 {
		t.Fatal("header and idle timeouts must be set")
	}
}
