package main

import (
	"strings"
	"testing"
)

// These tests drive the flag paths end to end; the benchmark engine
// itself is exercised by internal/harness.

func TestNCCLTestSmoke(t *testing.T) {
	code, got, stderr := runC4(t, "nccltest", "-nodes", "4", "-iters", "2", "-mib", "64")
	if code != 0 {
		t.Fatalf("c4 nccltest: exit %d, want 0 (stderr: %s)", code, stderr)
	}
	for _, want := range []string{"allreduce", "busbw", "mean busbw"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

func TestNCCLTestProviders(t *testing.T) {
	for _, p := range []string{"baseline", "c4p", "c4p-dynamic"} {
		if code, _, stderr := runC4(t, "nccltest", "-provider", p, "-nodes", "4", "-iters", "1", "-mib", "32"); code != 0 {
			t.Fatalf("provider %s: exit %d (stderr: %s)", p, code, stderr)
		}
	}
}

func TestNCCLTestHelpExitsZero(t *testing.T) {
	code, _, stderr := runC4(t, "nccltest", "-h")
	if code != 0 {
		t.Fatalf("c4 nccltest -h: exit %d, want 0", code)
	}
	if !strings.Contains(stderr, "provider") {
		t.Fatalf("usage text missing:\n%s", stderr)
	}
}

func TestNCCLTestUsageErrors(t *testing.T) {
	cases := map[string][]string{
		"unknown provider": {"-provider", "smoke-signals"},
		"too many nodes":   {"-nodes", "99"},
		"bad flag":         {"-definitely-not-a-flag"},
	}
	for name, args := range cases {
		code, _, stderr := runC4(t, append([]string{"nccltest"}, args...)...)
		if code != 2 {
			t.Errorf("%s: exit %d, want 2", name, code)
		}
		if stderr == "" {
			t.Errorf("%s: no diagnostic on stderr", name)
		}
	}
}
