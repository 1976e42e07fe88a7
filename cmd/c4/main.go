// Command c4 is the operator's entry point to the C4 reproduction. Each
// subcommand is one workflow: the live detect -> isolate -> restart loop
// (sim), the scenario registry and its regression outputs (bench),
// manifest-driven fault campaigns (campaign), the session daemon (serve),
// offline triage of telemetry streams (replay), the offline analyzer
// over the same streams (analyze) and causal traces (trace), and the
// nccl-tests benchmark (nccltest).
//
//	c4 sim -job gpt22b -fault crash -fault-at 30s
//	c4 bench -only 'fig*'
//	c4 campaign run -manifest campaigns/smoke.json -shard 0/2 -out p0.json
//	c4 serve -addr :8080
//	c4 replay -stream run.jsonl -summary
//	c4 analyze run.jsonl
//	c4 trace -check run.trace.json
//	c4 nccltest -nodes 8 -provider baseline
//
// Every subcommand prints its flags with -h. Exit codes: 0 success, 1 a
// failed run or check, 2 a usage error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// commands is the subcommand table, in the order usage lists it.
var commands = []struct {
	name, summary string
	run           func(args []string, stdout, stderr io.Writer) int
}{
	{"sim", "run one training job, 3D-parallelism plan or multi-tenant trace", runSim},
	{"bench", "run registered scenarios; emit the bench JSON or EXPERIMENTS.md", runBench},
	{"campaign", "expand, run, merge and check manifest-driven campaigns", runCampaign},
	{"serve", "serve simulation sessions over HTTP and SSE", runServe},
	{"replay", "replay a telemetry JSONL stream through the online detector", runReplay},
	{"analyze", "localize slow NICs and links in a telemetry JSONL stream (Fig 5)", runAnalyze},
	{"trace", "profile, diff or check a causal trace", runTrace},
	{"nccltest", "measure ring allreduce bus bandwidth (nccl-tests)", runNCCLTest},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run dispatches args[0] to its subcommand.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		return usage(stderr)
	}
	switch args[0] {
	case "help", "-h", "-help", "--help":
		usage(stderr)
		return 0
	}
	for _, c := range commands {
		if c.name == args[0] {
			return c.run(args[1:], stdout, stderr)
		}
	}
	fmt.Fprintf(stderr, "c4: unknown command %q\n", args[0])
	return usage(stderr)
}

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, "usage: c4 <command> [flags]\n\ncommands:")
	for _, c := range commands {
		fmt.Fprintf(stderr, "  %-10s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(stderr, "\nRun 'c4 <command> -h' for a command's flags.")
	return 2
}

// newFlags returns the flag set of subcommand name; parse errors and -h
// output go to stderr.
func newFlags(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("c4 "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parseFlags parses args into fs. ok is false when the subcommand must
// return code at once: 0 after -h, 2 after a bad flag, whose diagnostic
// the flag package has already printed.
func parseFlags(fs *flag.FlagSet, args []string) (code int, ok bool) {
	err := fs.Parse(args)
	switch {
	case err == nil:
		return 0, true
	case errors.Is(err, flag.ErrHelp):
		return 0, false
	}
	return 2, false
}

// parseShard parses "i/n" shard coordinates: exactly two decimal integers
// around one slash, with 0 <= i < n.
func parseShard(s string) (shard, of int, err error) {
	a, b, ok := strings.Cut(s, "/")
	if ok {
		if shard, err = strconv.Atoi(a); err == nil {
			of, err = strconv.Atoi(b)
		}
	}
	if !ok || err != nil {
		return 0, 0, fmt.Errorf("bad -shard %q (want i/n, e.g. 0/4)", s)
	}
	if of < 1 || shard < 0 || shard >= of {
		return 0, 0, fmt.Errorf("bad -shard %q: want 0 <= i < n", s)
	}
	return shard, of, nil
}

// writeFile writes via fn to path, or to fallback when path is empty. A
// regular file (or a new one) is written to a temp file renamed into
// place, so a killed process never leaves a half-written artifact that a
// later step would trust. Any other existing file, such as a named pipe
// or /dev/null, is written in place rather than replaced.
func writeFile(path string, fallback io.Writer, fn func(io.Writer) error) error {
	if path == "" {
		return fn(fallback)
	}
	target := path + ".tmp"
	if st, err := os.Stat(path); err == nil && !st.Mode().IsRegular() {
		target = path
	}
	f, err := os.OpenFile(target, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return err
	}
	err = fn(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if target == path {
		return err
	}
	if err == nil {
		err = os.Rename(target, path)
	}
	if err != nil {
		os.Remove(target)
	}
	return err
}

// readFile opens path and decodes it with parse; decode errors name the
// file.
func readFile[T any](path string, parse func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	v, err := parse(f)
	if err != nil {
		return v, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}
