package faults

import (
	"fmt"
	"slices"
	"strings"

	"c4/internal/c4d"
	"c4/internal/metrics"
	"c4/internal/sim"
)

// Time-to-detect scoring: where score.go asks *whether* a detector found
// the injected faults (precision/recall), this file asks *how fast*. The
// fault-injection campaigns know the exact inject instant of every spec,
// so a detection stream — batch C4D events converted via
// c4d.Detections, or the streaming detector's native output — scores
// directly against ground truth as TimeToDetect (first attributable
// detection) and TimeToLocalize (first detection whose suspect set stays
// inside the fault's impact set, i.e. blames no innocent).

// FaultTiming is the detection-latency outcome for one relevant fault.
type FaultTiming struct {
	Spec     Spec
	Detected bool
	// TimeToDetect is first attributable detection minus fault start.
	TimeToDetect sim.Time
	Localized    bool
	// TimeToLocalize is the first detection with suspects ⊆ impact.
	TimeToLocalize sim.Time
}

// TTDReport scores a detection stream's latency against ground truth.
type TTDReport struct {
	Faults     []FaultTiming // one per relevant ground truth
	Detections int           // total detections scored
	// FalseAlarms counts detections attributable to no injected fault.
	FalseAlarms int
}

// matchesDetection mirrors GroundTruth.Matches for the streaming shape:
// the detection fires inside the fault's active window (plus grace) and
// names at least one impacted node as a suspect.
func (gt GroundTruth) matchesDetection(d c4d.Detection) bool {
	if !gt.Relevant() {
		return false
	}
	if d.At < gt.Spec.Start || d.At-Grace > gt.Spec.End() {
		return false
	}
	for _, s := range d.Suspects {
		if slices.Contains(gt.Impact, s) {
			return true
		}
	}
	return false
}

// localizes reports whether the detection blames only impacted nodes.
func (gt GroundTruth) localizes(d c4d.Detection) bool {
	if len(d.Suspects) == 0 {
		return false
	}
	for _, s := range d.Suspects {
		if !slices.Contains(gt.Impact, s) {
			return false
		}
	}
	return true
}

// ScoreTTD computes per-fault detection latency for a detection stream.
// Detections need not be time-sorted; the earliest match wins.
func ScoreTTD(dets []c4d.Detection, truths []GroundTruth) TTDReport {
	rep := TTDReport{Detections: len(dets)}
	type slot struct {
		timing FaultTiming
		truth  GroundTruth
	}
	var slots []slot
	for _, gt := range truths {
		if gt.Relevant() {
			slots = append(slots, slot{FaultTiming{Spec: gt.Spec}, gt})
		}
	}
	for _, d := range dets {
		matched := false
		for i := range slots {
			s := &slots[i]
			if !s.truth.matchesDetection(d) {
				continue
			}
			matched = true
			ttd := d.At - s.truth.Spec.Start
			if !s.timing.Detected || ttd < s.timing.TimeToDetect {
				s.timing.Detected = true
				s.timing.TimeToDetect = ttd
			}
			if s.truth.localizes(d) &&
				(!s.timing.Localized || ttd < s.timing.TimeToLocalize) {
				s.timing.Localized = true
				s.timing.TimeToLocalize = ttd
			}
		}
		if !matched {
			rep.FalseAlarms++
		}
	}
	for _, s := range slots {
		rep.Faults = append(rep.Faults, s.timing)
	}
	return rep
}

// DetectedCount reports how many relevant faults were detected at all.
func (r TTDReport) DetectedCount() int {
	n := 0
	for _, f := range r.Faults {
		if f.Detected {
			n++
		}
	}
	return n
}

// MeanTTDSeconds averages TimeToDetect over detected faults; 0 when
// nothing was detected (never NaN — these numbers feed c4 bench -json).
func (r TTDReport) MeanTTDSeconds() float64 {
	var xs []float64
	for _, f := range r.Faults {
		if f.Detected {
			xs = append(xs, f.TimeToDetect.Seconds())
		}
	}
	return metrics.Mean(xs)
}

// MeanTTLSeconds averages TimeToLocalize over localized faults; 0 when
// nothing was localized.
func (r TTDReport) MeanTTLSeconds() float64 {
	var xs []float64
	for _, f := range r.Faults {
		if f.Localized {
			xs = append(xs, f.TimeToLocalize.Seconds())
		}
	}
	return metrics.Mean(xs)
}

func (r TTDReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d/%d faults detected (mean TTD %.2fs, mean TTL %.2fs), %d false alarms\n",
		r.DetectedCount(), len(r.Faults), r.MeanTTDSeconds(), r.MeanTTLSeconds(), r.FalseAlarms)
	for _, f := range r.Faults {
		switch {
		case !f.Detected:
			fmt.Fprintf(&sb, "  %v: MISSED\n", f.Spec)
		case !f.Localized:
			fmt.Fprintf(&sb, "  %v: detected +%v (never localized)\n", f.Spec, f.TimeToDetect)
		default:
			fmt.Fprintf(&sb, "  %v: detected +%v, localized +%v\n",
				f.Spec, f.TimeToDetect, f.TimeToLocalize)
		}
	}
	return sb.String()
}
