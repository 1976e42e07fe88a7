package c4

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// goldenJob is one job-mode session pinned byte for byte: the SHA-256 of
// its log (the `c4 sim` stdout), of its JSONL telemetry stream when one is
// attached, and of its Chrome trace when it is traced, plus its metrics.
type goldenJob struct {
	name   string
	job    SessionJob
	stream bool // attach a JSONL sink (`c4 sim -telemetry-out`)
	traced bool // attach a tracer (`c4 sim -trace-out`)

	log, jsonl, trace string // SHA-256 hex; "" when not produced
	simEvents         float64
	metrics           string // SHA-256 hex of every other metric, sorted
}

// cliJob is SessionJob as `c4 sim` fills it from its flag defaults.
func cliJob(model, fault string, horizonS float64) SessionJob {
	victim := 6
	return SessionJob{
		Model: model, Provider: "c4p", Placement: "spread", Fault: fault,
		FaultAtS: 30, Victim: &victim, HorizonS: horizonS, PlanIters: 5,
	}
}

func goldenJobs() []goldenJob {
	with := func(js SessionJob, f func(*SessionJob)) SessionJob { f(&js); return js }
	victim := func(n int) *int { return &n }
	return []goldenJob{
		{
			name: "gpt22b-crash-120s", job: cliJob("gpt22b", "crash", 120), stream: true, traced: true,
			log:       "93401240e036e7acaa25500e09be325ef91cadd61f2d1bb779ca32d0ef15d3d8",
			jsonl:     "2de34e736bda78d5ff363864e073845d5009a04536fecfaf95e5456e9d0a5467",
			trace:     "2532f7151deaaaf5a74d479883dbb29814111d955fed3c1c4aa7cf08f286f4d7",
			simEvents: 6182,
			metrics:   "e1f52c03a4ccfdc6710871b053371e312838ae4e49674de3db478c0580bbc728",
		},
		{
			name: "crash-15m", job: cliJob("gpt22b", "crash", 900), traced: true,
			log:       "3440400003e61c693c949afe54c9d8c11a7fcfbaeaf9810c8d348fd68149f356",
			trace:     "ee844c8db858be276d10a4ccd0c062c348753681e18a39d247a928914b476f91",
			simEvents: 110175,
			metrics:   "08e345ee47e528a69fd3c25049ea07637d16b3b53c76f17ee1fd01baa78bfbdd",
		},
		{
			name: "llama7b-straggler-3m", job: cliJob("llama7b", "straggler", 180),
			log:       "9192c65dcc8f61af1ee38b2d0e149acfb71726c0ea15a9b6f13ab6e15bc17136",
			simEvents: 18014,
			metrics:   "c29c0fc38a9b383bbd204ff80afd2fa4f2ce5ca1ebbcea7e63f11bf06d6eed47",
		},
		{
			name: "nic-8m-online", job: with(cliJob("gpt22b", "nic", 480), func(js *SessionJob) { js.Online = true }),
			log:       "10fa8524568b6d019b1f30182b54a0eeda1017ab65ecd757f2a17043903e9bbd",
			simEvents: 47305,
			metrics:   "ee4b61682d484f4ae4da798161e7ace00455d998c33cebb18ddc348160852834",
		},
		{
			name: "gpt175b-crash-6m-topo", job: with(cliJob("gpt175b", "crash", 360), func(js *SessionJob) { js.Placement = "topo" }),
			log:       "954e9892e49cfee0c9d0c93edd5fedb83fa78949d9ba7ab946c1467eccc29863",
			simEvents: 82583,
			metrics:   "b8af861fe19065d55fba163953bd65aae829d6f2e706e85b6a641e84cee816bb",
		},
		{
			name: "crash-6m-no-c4d", job: with(cliJob("gpt22b", "crash", 360), func(js *SessionJob) { js.NoC4D = true }),
			log:       "20e58bfbc0b9621ddb2942b49ffae0609a4f0befc9047d2853ef0ddf12daf3eb",
			simEvents: 5149,
			metrics:   "d8104c62ca09e333c7e1dabc2642c0f26799304f252521265ffa7fe11aeaf8ff",
		},
		{
			// The crash is detected and steered; the plan finishes.
			name: "plan-pp2-dp4-crash", job: with(cliJob("gpt22b", "crash", 900), func(js *SessionJob) {
				js.Plan, js.PlanIters, js.Victim = "tp8/pp2/dp4/ga4", 100, victim(9)
			}),
			log:       "16be46881f2306029f13cb6306b0f66bd2f6d8a861487b0642b9b95908ef50de",
			simEvents: 58508,
			metrics:   "9fa46a0699b7e1984fd2cab8681889ddd1911e45d3e1bc1a435aef4d1575d690",
		},
		{
			// The plan finishes before the fault instant: the fault is
			// dropped and the queue drains.
			name: "plan-pp2-dp2-pending-crash", job: with(cliJob("gpt22b", "crash", 900), func(js *SessionJob) {
				js.Plan, js.Victim = "tp8/pp2/dp2/ga2", victim(1)
			}),
			log:       "1542950effef31fec48c6f62d7813701b3a6d79133c929cbd0ffbdbb00aae68c",
			simEvents: 846,
			metrics:   "94929c1c0f76b7192a33e14c76209e8d6f73c594e5f885c8be851c24998ffcb6",
		},
	}
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// metricsDigest hashes every metric but sim_events, in key order.
func metricsDigest(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		if k != "sim_events" {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%v\n", k, m[k])
	}
	return sha([]byte(b.String()))
}

// TestJobSessionGoldens pins eight job-mode sessions, plan mode included.
// The hashes were recorded from the session's hand-built loop and hold
// for the monitored-job rig, with two differences the fault injector
// brings: sim_events counts the injector's own onset events (its
// telemetry event, and the fault span's when traced), and the straggler
// raises a thermal signal, which moves its RCA confidence lines. A
// mismatch prints the fresh values.
func TestJobSessionGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runs eight full sessions")
	}
	for _, g := range goldenJobs() {
		t.Run(g.name, func(t *testing.T) {
			var log, stream, tr bytes.Buffer
			sess, err := NewSession(SessionOptions{Spec: SessionSpec{Seed: 1, Job: &g.job}, Log: &log})
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			var w *TelemetryStreamWriter
			if g.stream {
				w = NewTelemetryStreamWriter(&stream)
				sess.AttachSink(w)
			}
			var tracer *Tracer
			if g.traced {
				tracer = NewTracer()
				sess.AttachTracer(tracer)
			}
			if err := sess.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			got := goldenJob{log: sha(log.Bytes())}
			if w != nil {
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
				got.jsonl = sha(stream.Bytes())
			}
			if tracer != nil {
				if err := WriteTrace(&tr, tracer.Spans()); err != nil {
					t.Fatal(err)
				}
				got.trace = sha(tr.Bytes())
			}
			m := sess.Metrics()
			got.simEvents, got.metrics = m["sim_events"], metricsDigest(m)
			if got.log != g.log || got.jsonl != g.jsonl || got.trace != g.trace ||
				got.simEvents != g.simEvents || got.metrics != g.metrics {
				t.Errorf("session drifted from its golden:\n"+
					"log:       %q\njsonl:     %q\ntrace:     %q\nsimEvents: %v,\nmetrics:   %q\nlog text:\n%s",
					got.log, got.jsonl, got.trace, got.simEvents, got.metrics, log.String())
			}
		})
	}
}
