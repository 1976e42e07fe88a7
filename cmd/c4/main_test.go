package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// runC4 drives the command's entry point, returning the exit code and
// both streams.
func runC4(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestCommandContract pins the contract every subcommand shares: -h exits
// 0 and prints the subcommand's flags to stderr, an undefined flag exits
// 2 with a diagnostic on stderr, and the top level lists every
// subcommand.
func TestCommandContract(t *testing.T) {
	flagOf := map[string]string{
		"sim": "-job", "bench": "-only", "campaign": "-manifest", "serve": "-addr",
		"replay": "-stream", "analyze": "-demo", "trace": "-diff",
		"nccltest": "-nodes",
	}
	if len(flagOf) != len(commands) {
		t.Fatalf("contract table covers %d subcommands, commands has %d", len(flagOf), len(commands))
	}
	for _, c := range commands {
		args := []string{c.name}
		if c.name == "campaign" {
			args = append(args, "run")
		}
		code, stdout, stderr := runC4(t, append(args, "-h")...)
		if code != 0 || stdout != "" || !strings.Contains(stderr, flagOf[c.name]) {
			t.Errorf("c4 %s -h: exit %d, stdout %q, stderr %q", strings.Join(args, " "), code, stdout, stderr)
		}
		code, _, stderr = runC4(t, append(args, "-definitely-not-a-flag")...)
		if code != 2 || !strings.Contains(stderr, "definitely-not-a-flag") {
			t.Errorf("c4 %s with an undefined flag: exit %d, stderr %q", strings.Join(args, " "), code, stderr)
		}
	}
	if code, _, _ := runC4(t, "campaign", "-h"); code != 0 {
		t.Errorf("c4 campaign -h: exit %d, want 0", code)
	}
	for _, args := range [][]string{nil, {"frobnicate"}} {
		code, _, stderr := runC4(t, args...)
		if code != 2 {
			t.Errorf("c4 %v: exit %d, want 2", args, code)
		}
		for _, c := range commands {
			if !strings.Contains(stderr, "  "+c.name+" ") {
				t.Errorf("c4 %v: usage does not list %s:\n%s", args, c.name, stderr)
			}
		}
	}
	if code, _, stderr := runC4(t, "help"); code != 0 || !strings.Contains(stderr, "nccltest") {
		t.Errorf("c4 help: exit %d, stderr %q", code, stderr)
	}
}

func TestParseShard(t *testing.T) {
	if s, n, err := parseShard("3/8"); err != nil || s != 3 || n != 8 {
		t.Fatalf("parseShard(3/8) = %d, %d, %v", s, n, err)
	}
	for _, bad := range []string{"", "x", "1", "2/2", "-1/4", "0/0", "1/-2", "1/2junk", "1/2/3", "0/4,1/4"} {
		if _, _, err := parseShard(bad); err == nil {
			t.Errorf("parseShard(%q) accepted", bad)
		}
	}
}

// TestWriteFileKeepsFIFO writes an artifact to a named pipe: the bytes
// must reach the pipe's reader and the pipe must survive, where a
// temp-and-rename write would replace it with a regular file.
func TestWriteFileKeepsFIFO(t *testing.T) {
	fifo := filepath.Join(t.TempDir(), "pipe")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Fatal(err)
	}
	got := make(chan []byte, 1)
	go func() {
		var data []byte
		if f, err := os.Open(fifo); err == nil {
			data, _ = io.ReadAll(f)
			f.Close()
		}
		got <- data
	}()
	want := []byte("artifact bytes\n")
	err := writeFile(fifo, nil, func(w io.Writer) error {
		_, err := w.Write(want)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Lstat(fifo)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode()&os.ModeNamedPipe == 0 {
		t.Fatalf("named pipe replaced by a file of mode %v", st.Mode())
	}
	if data := <-got; !bytes.Equal(data, want) {
		t.Fatalf("reader got %q, want %q", data, want)
	}
}
