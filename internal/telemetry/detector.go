package telemetry

import (
	"encoding/binary"
	"fmt"
	"slices"

	"c4/internal/accl"
	"c4/internal/c4d"
	"c4/internal/sim"
)

// DetectorConfig is the online detector's configuration. It is
// c4d.Config, so the two detectors judge with one set of thresholds and
// differ only in when they look and how they smooth. The online detector
// reads HangTimeout and Kappa and the constants c4d.MinWait and
// c4d.DedupInterval, and decays its wait accumulators with
// c4d.ReportInterval as their time constant.
type DetectorConfig = c4d.Config

// matrixAlpha is the streaming matrix's EWMA smoothing factor.
const matrixAlpha = 0.4

// commWatch is the per-communicator incremental state.
type commWatch struct {
	comm int
	hang *c4d.HangWatch

	matrix *DelayMatrix

	// Decayed waited-on time per node, in ascending node order, and the
	// straggler rule's input built from them (reused across checks).
	waitNodes []int
	waits     []DecayAccum
	waitVals  []float64

	alarm   *sim.Event
	alarmAt sim.Time
}

// OnlineDetector turns the merged record stream into Detections the
// moment a threshold crosses. Slowness fires inside the Observe call that
// pushed an aggregate over the line; hangs — which are the *absence* of
// records — fire from engine alarms armed at the exact instant the
// timeout can first be satisfied. Either way, detection latency is set by
// the evidence, not by a reporting tick.
type OnlineDetector struct {
	cfg DetectorConfig
	eng *sim.Engine

	comms      map[int]*commWatch
	detections []c4d.Detection
	handlers   []func(c4d.Detection)
	updates    uint64

	// lastFire holds each finding's last firing by its identity key
	// (findingKey); key is the buffer the key is packed in.
	lastFire map[string]sim.Time
	key      []byte
}

// NewOnlineDetector creates a detector bound to the engine (needed for
// hang alarms).
func NewOnlineDetector(eng *sim.Engine, cfg DetectorConfig) *OnlineDetector {
	return &OnlineDetector{
		cfg:      cfg.WithDefaults(),
		eng:      eng,
		comms:    map[int]*commWatch{},
		lastFire: map[string]sim.Time{},
	}
}

// Config returns the effective configuration.
func (d *OnlineDetector) Config() DetectorConfig { return d.cfg }

// Subscribe registers a handler invoked on every new detection.
func (d *OnlineDetector) Subscribe(h func(c4d.Detection)) {
	d.handlers = append(d.handlers, h)
}

// Detections returns every detection fired so far.
func (d *OnlineDetector) Detections() []c4d.Detection {
	return append([]c4d.Detection(nil), d.detections...)
}

// Updates reports the total elementary state-update operations performed:
// one per record plus one per loop iteration taken on the per-record
// path. It is the streaming work metric the scale sweep compares against
// the batch master's MatrixCellVisits — and because loop iterations
// count, a regression that reintroduces a per-record member scan shows
// up as updates-per-record growing with fleet size.
func (d *OnlineDetector) Updates() uint64 { return d.updates }

// Stop cancels all pending hang alarms (end of simulation).
func (d *OnlineDetector) Stop() {
	for _, w := range d.comms {
		if w.alarm != nil {
			w.alarm.Cancel()
			w.alarm = nil
		}
	}
}

// Observe folds one stream record into the incremental state and fires
// any detection it completes.
func (d *OnlineDetector) Observe(rec Record) {
	d.updates++
	switch rec.Kind {
	case KindCommCreate:
		d.comms[rec.Comm] = &commWatch{
			comm:   rec.Comm,
			hang:   c4d.NewHangWatch(rec.Nodes),
			matrix: NewDelayMatrix(matrixAlpha),
		}
	case KindCommClose:
		if w := d.comms[rec.Comm]; w != nil {
			if w.alarm != nil {
				w.alarm.Cancel()
			}
			delete(d.comms, rec.Comm)
		}
	case KindColl:
		if w := d.comms[rec.Comm]; w != nil && rec.Coll != nil {
			d.observeColl(w, *rec.Coll)
		}
	case KindMsg:
		if w := d.comms[rec.Comm]; w != nil && rec.Msg != nil {
			d.observeMsg(w, *rec.Msg)
		}
	case KindWait:
		if w := d.comms[rec.Comm]; w != nil && rec.Wait != nil {
			d.observeWait(w, *rec.Wait)
		}
	}
}

// findingKey packs a finding's identity, its communicator, syndrome and
// suspects, into d.key as varints and returns it. A lastFire lookup by
// string(key) does not allocate.
func (d *OnlineDetector) findingKey(comm int, syn c4d.Syndrome, suspects []int) []byte {
	b := binary.AppendVarint(d.key[:0], int64(comm))
	b = binary.AppendVarint(b, int64(syn))
	for _, s := range suspects {
		b = binary.AppendVarint(b, int64(s))
	}
	d.key = b
	return b
}

// repeats reports whether the finding fired less than c4d.DedupInterval
// before at. Callers ask before they build the finding's Detection, so a
// suppressed repeat allocates nothing.
func (d *OnlineDetector) repeats(comm int, syn c4d.Syndrome, suspects []int, at sim.Time) bool {
	last, ok := d.lastFire[string(d.findingKey(comm, syn, suspects))]
	return ok && at-last < c4d.DedupInterval
}

// emit fires det, which repeats has cleared.
func (d *OnlineDetector) emit(det c4d.Detection) {
	d.lastFire[string(d.findingKey(det.Comm, det.Syndrome, det.Suspects))] = det.At
	d.detections = append(d.detections, det)
	for _, h := range d.handlers {
		h(det)
	}
}

func (d *OnlineDetector) observeColl(w *commWatch, ev accl.CollEvent) {
	d.updates += uint64(w.hang.Coll(ev))
	d.rearmHangAlarm(w)
}

func (d *OnlineDetector) observeMsg(w *commWatch, ev accl.MsgEvent) {
	d.updates += uint64(w.hang.Msg(ev))
	if dur := ev.Duration(); dur > 0 {
		bw := ev.Bytes * 8 / dur.Seconds() / 1e9 // Gbps
		w.matrix.Observe(ev.SrcNode, ev.DstNode, bw)
		d.checkCommSlow(w, ev.SrcNode, ev.DstNode)
	}
	d.rearmHangAlarm(w)
}

func (d *OnlineDetector) observeWait(w *commWatch, ev accl.WaitEvent) {
	i, ok := slices.BinarySearch(w.waitNodes, ev.On)
	if !ok {
		w.waitNodes = slices.Insert(w.waitNodes, i, ev.On)
		w.waits = slices.Insert(w.waits, i, DecayAccum{Tau: c4d.ReportInterval})
	}
	acc := &w.waits[i]
	acc.Add(ev.Time, ev.Dur.Seconds())
	// O(1) precheck: the member scan can only produce a verdict when the
	// node this record updated clears the absolute floor, which healthy
	// jitter-level waits never do. The verdict itself is stamped at the
	// delivery instant — under a batched drain cadence the detector
	// cannot claim to have known before the drain.
	now := d.eng.Now()
	if acc.ValueAt(now) < c4d.MinWait.Seconds() {
		return
	}
	d.checkStraggler(w, now)
}

// checkCommSlow judges the cell the record just updated, with its row and
// column, by the comm-slow rule.
func (d *OnlineDetector) checkCommSlow(w *commWatch, src, dst int) {
	f, ok := c4d.JudgeCell(w.matrix.Evidence(src, dst), d.cfg.Kappa)
	if !ok {
		return
	}
	now := d.eng.Now()
	switch f.Scope {
	case c4d.ScopeNodeTx:
		d.commSlow(w, now, f.Slowdown, "streaming matrix row slow: source Tx degraded", src)
	case c4d.ScopeNodeRx:
		d.commSlow(w, now, f.Slowdown, "streaming matrix column slow: destination Rx degraded", dst)
	default:
		d.commSlow(w, now, f.Slowdown, "streaming connection slow", src, dst)
	}
}

// commSlow fires a comm-slow finding on suspects unless it repeats.
func (d *OnlineDetector) commSlow(w *commWatch, now sim.Time, severity float64, detail string, suspects ...int) {
	if d.repeats(w.comm, c4d.CommSlow, suspects, now) {
		return
	}
	d.emit(c4d.Detection{
		At: now, Comm: w.comm, Syndrome: c4d.CommSlow, Suspects: append([]int(nil), suspects...),
		Severity: severity, Detail: detail,
	})
}

// checkStraggler applies the straggler rule to the decayed waited-on
// times.
func (d *OnlineDetector) checkStraggler(w *commWatch, now sim.Time) {
	w.waitVals = w.waitVals[:0]
	for i := range w.waits {
		w.waitVals = append(w.waitVals, w.waits[i].ValueAt(now))
	}
	d.updates += uint64(len(w.waits))
	i, ok := c4d.Straggler(w.waitVals, c4d.MinWait.Seconds(), c4d.WaitKappa)
	if !ok {
		return
	}
	top, node := w.waitVals[i], w.waitNodes[i]
	if d.repeats(w.comm, c4d.NonCommSlow, []int{node}, now) {
		return
	}
	d.emit(c4d.Detection{
		At: now, Comm: w.comm, Syndrome: c4d.NonCommSlow, Suspects: []int{node},
		Severity: top / c4d.ReportInterval.Seconds(),
		Detail:   fmt.Sprintf("peers' decayed wait on this node %.3fs", top),
	})
}

// rearmHangAlarm (re)schedules the comm's alarm at the current deadline.
func (d *OnlineDetector) rearmHangAlarm(w *commWatch) {
	deadline := w.hang.Deadline(d.cfg.HangTimeout)
	if deadline == 0 {
		if w.alarm != nil {
			w.alarm.Cancel()
			w.alarm = nil
		}
		return
	}
	if w.alarm != nil && !w.alarm.Cancelled() && w.alarmAt == deadline {
		return
	}
	at := deadline
	if now := d.eng.Now(); at < now {
		at = now
	}
	w.alarmAt = deadline
	// Move the queued alarm in place; falls back to a fresh event when the
	// old one already fired or was cancelled. Reschedule assigns a fresh
	// sequence number, so the firing order matches cancel-and-recreate.
	if d.eng.Reschedule(w.alarm, at) {
		return
	}
	w.alarm = d.eng.Schedule(at, func() { d.hangAlarm(w) })
}

// hangAlarm re-evaluates the hang rule at the exact deadline.
func (d *OnlineDetector) hangAlarm(w *commWatch) {
	w.alarm = nil
	if d.comms[w.comm] != w {
		return // closed and replaced
	}
	now := d.eng.Now()
	if h, ok := w.hang.Verdict(now, d.cfg.HangTimeout); ok && !d.repeats(w.comm, h.Syndrome, h.Suspects, now) {
		detail := fmt.Sprintf("no kernel launch for op %d (peers launched %v ago)", h.Op, h.Stalled)
		if h.Syndrome == c4d.CommHang {
			detail = fmt.Sprintf("op %d transport silent for %v", h.Op, h.Stalled)
		}
		d.emit(c4d.Detection{
			At: now, Comm: w.comm, Syndrome: h.Syndrome, Suspects: h.Suspects,
			Severity: h.Stalled.Seconds(), Detail: detail,
		})
	}
	// Keep watching: a persistent hang re-fires after dedup expires, and a
	// hang that develops later still has its alarm armed.
	w.alarmAt = now + d.cfg.HangTimeout
	w.alarm = d.eng.Schedule(w.alarmAt, func() { d.hangAlarm(w) })
}
