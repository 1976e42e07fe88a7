package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"slices"
	"time"

	"c4"
	"c4/internal/c4d"
	"c4/internal/sim"
	"c4/internal/telemetry"
)

// replayVictim is the node the replayed job's crash fault hits (the
// session default); the replayed detections must name it.
const replayVictim = 6

// replayBench decodes one recorded telemetry stream and replays it through
// the online detector with c4watch's defaults, over and over.
type replayBench struct {
	stream  []byte
	records int
	horizon float64
	// want is the first replay's detections; every later one must match.
	want []string
}

func newReplayBench(ctx context.Context, c config) (bench, error) {
	spec := c4.SessionSpec{Seed: c.seed, Job: &c4.SessionJob{Model: "gpt22b", Fault: "crash", HorizonS: c.size.replayHorizonS}}
	stream, _, err := oneShot(ctx, spec)
	if err != nil {
		return nil, fmt.Errorf("recording the stream: %w", err)
	}
	b := &replayBench{stream: stream, records: bytes.Count(stream, []byte("\n")), horizon: c.size.replayHorizonS}
	if _, _, err := b.replay(newRecorder(false), 0); err != nil { // warm-up
		return nil, fmt.Errorf("warm-up replay: %w", err)
	}
	return b, nil
}

// run replays the stream until the deadline has passed, at least once.
func (b *replayBench) run(_ context.Context, rec *recorder, deadline time.Time) {
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		rec.attempt(1)
		root := rec.begin(0, "bench", "replay")
		m := startMeter()
		dets, updates, err := b.replay(rec, root)
		u := m.stop(float64(b.records))
		rec.end(root)
		if err == nil {
			err = b.check(dets)
		}
		if err != nil {
			rec.fail(1, "replay: %v", err)
		} else {
			rec.unit("replay", u)
			rec.count("updates", float64(updates))
			rec.count("records", float64(b.records))
		}
		rec.tick()
	}
}

func (b *replayBench) replay(rec *recorder, root int) ([]c4d.Detection, uint64, error) {
	id := rec.begin(root, "telemetry", "decode")
	records, err := telemetry.ReadStream(bytes.NewReader(b.stream))
	rec.end(id)
	if err != nil {
		return nil, 0, err
	}
	if len(records) != b.records {
		return nil, 0, fmt.Errorf("decoded %d records, the stream has %d", len(records), b.records)
	}
	id = rec.begin(root, "telemetry", "detect")
	det := telemetry.Replay(records, telemetry.DetectorConfig{HangTimeout: 30 * sim.Second, Kappa: 2}, 0)
	rec.end(id)
	return det.Detections(), det.Updates(), nil
}

// check requires the first replay to name the crash victim and every
// later one to repeat the first.
func (b *replayBench) check(dets []c4d.Detection) error {
	var got []string
	for _, d := range dets {
		got = append(got, d.String())
	}
	if b.want == nil {
		if !slices.ContainsFunc(dets, func(d c4d.Detection) bool { return slices.Contains(d.Suspects, replayVictim) }) {
			return fmt.Errorf("no detection names the crashed node %d: %v", replayVictim, got)
		}
		b.want = got
		return nil
	}
	if !slices.Equal(got, b.want) {
		return fmt.Errorf("detections differ from the first replay")
	}
	return nil
}

func (b *replayBench) layerMetrics(rec *recorder) map[string]float64 {
	nsPerRecord := func(name string) float64 {
		return 1e6 * per(median(rec.spanMs("telemetry", name)), float64(b.records))
	}
	return map[string]float64{
		"telemetry.decode_ns_per_record": nsPerRecord("decode"),
		"telemetry.detect_ns_per_record": nsPerRecord("detect"),
		"telemetry.updates_per_record":   per(rec.counts["updates"], rec.counts["records"]),
	}
}

func (b *replayBench) detail(rec *recorder) map[string]float64 {
	return map[string]float64{"telemetry.replay_ns_per_record": 1e6 * per(rec.unitMs(), float64(b.records))}
}

func (b *replayBench) sizes() map[string]any {
	return map[string]any{"records": b.records, "stream_bytes": len(b.stream), "horizon_s": b.horizon}
}

func (b *replayBench) outputSHA() string {
	h := sha256.New()
	h.Write(b.stream)
	for _, d := range b.want {
		fmt.Fprintln(h, d)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func (b *replayBench) close() error { return nil }
