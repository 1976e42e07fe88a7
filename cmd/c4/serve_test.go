package main

import (
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
