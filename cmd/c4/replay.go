package main

import (
	"fmt"
	"io"
	"time"

	"c4/internal/sim"
	"c4/internal/telemetry"
)

// runReplay is `c4 replay`: it replays a telemetry JSONL stream (written
// by `c4 sim -telemetry-out` or any telemetry.StreamWriter) through the
// streaming online detector for offline triage: the same detections the
// live pipeline would have fired, at the same virtual instants, plus
// stream statistics.
//
//	c4 replay -stream run.jsonl             # replay, print detections
//	c4 replay -stream run.jsonl -summary    # add per-kind/bandwidth stats
//	c4 replay -stream run.jsonl -tail 60s   # let trailing hang timeouts ripen
func runReplay(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("replay", stderr)
	var (
		stream  = fs.String("stream", "", "telemetry JSONL stream file (required)")
		tail    = fs.Duration("tail", 0, "virtual time to run past the last record so trailing hang timeouts can ripen (0 = an ended capture is not a hang)")
		hangT   = fs.Duration("hang-timeout", 30*time.Second, "silence span before a hang verdict")
		kappa   = fs.Float64("kappa", 2, "slowdown multiple considered anomalous")
		summary = fs.Bool("summary", false, "print stream statistics after the detections")
	)
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}
	var bad string
	switch {
	case *stream == "":
		bad = "-stream FILE is required"
	case *tail < 0:
		bad = fmt.Sprintf("-tail %v: want a duration of 0 or more", *tail)
	case *hangT <= 0:
		bad = fmt.Sprintf("-hang-timeout %v: want a positive timeout", *hangT)
	case !(*kappa > 1):
		bad = fmt.Sprintf("-kappa %v: want a slowdown multiple above 1", *kappa)
	}
	if bad != "" {
		fmt.Fprintf(stderr, "c4 replay: %s\n", bad)
		return 2
	}
	records, err := readFile(*stream, telemetry.ReadStream)
	if err != nil {
		fmt.Fprintf(stderr, "c4 replay: %v\n", err)
		return 2
	}
	if len(records) == 0 {
		fmt.Fprintln(stderr, "c4 replay: stream is empty")
		return 1
	}

	det := telemetry.Replay(records, telemetry.DetectorConfig{
		HangTimeout: sim.FromDuration(*hangT),
		Kappa:       *kappa,
	}, sim.FromDuration(*tail))

	span := records[len(records)-1].Time - records[0].Time
	fmt.Fprintf(stdout, "replayed %d records spanning %v\n", len(records), span)
	dets := det.Detections()
	if len(dets) == 0 {
		fmt.Fprintln(stdout, "no detections")
	}
	for _, d := range dets {
		fmt.Fprintf(stdout, "DETECT %v\n", d)
	}
	if *summary {
		printSummary(stdout, records)
	}
	return 0
}

// printSummary renders per-kind counts, participating nodes, and a
// bandwidth profile of the transport records (via the same streaming
// quantile sketch the detector thresholds against).
func printSummary(out io.Writer, records []telemetry.Record) {
	kinds := map[telemetry.Kind]int{}
	nodes := map[int]bool{}
	comms := map[int]bool{}
	sketch := telemetry.NewQuantileSketch(0.01, 10000, 256)
	var waitTotal sim.Time
	for _, r := range records {
		kinds[r.Kind]++
		comms[r.Comm] = true
		if r.Node >= 0 {
			nodes[r.Node] = true
		}
		switch {
		case r.Kind == telemetry.KindMsg && r.Msg != nil:
			if dur := r.Msg.Duration(); dur > 0 {
				sketch.Observe(r.Msg.Bytes * 8 / dur.Seconds() / 1e9)
			}
		case r.Kind == telemetry.KindWait && r.Wait != nil:
			waitTotal += r.Wait.Dur
		}
	}
	fmt.Fprintf(out, "---\nstream summary: %d nodes, %d communicators\n", len(nodes), len(comms))
	for _, k := range []telemetry.Kind{
		telemetry.KindCommCreate, telemetry.KindCommClose,
		telemetry.KindColl, telemetry.KindMsg, telemetry.KindWait,
	} {
		if kinds[k] > 0 {
			fmt.Fprintf(out, "  %-12s %d\n", k, kinds[k])
		}
	}
	if sketch.Count() > 0 {
		fmt.Fprintf(out, "  msg bandwidth p10/p50/p90: %.1f / %.1f / %.1f Gbps\n",
			sketch.Quantile(0.1), sketch.Quantile(0.5), sketch.Quantile(0.9))
	}
	if waitTotal > 0 {
		fmt.Fprintf(out, "  receiver-driven wait total: %v\n", waitTotal)
	}
}
