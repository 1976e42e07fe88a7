package faults

import (
	"slices"

	"c4/internal/c4d"
	"c4/internal/cluster"
	"c4/internal/rca"
	"c4/internal/sim"
	"c4/internal/topo"
)

// Grace is how long after a fault clears its C4D findings still count as
// true positives: detection latency (reporting interval + hang timeout)
// plus the dedup window can delay a finding past the fault's end.
const Grace = 90 * sim.Second

// GroundTruth is one injected fault plus the job nodes it can impact.
// An empty Impact means the fault cannot touch the job's traffic — a
// fabric fault under a placement that never crosses the spine layer — so
// it neither counts toward recall nor excuses findings as true positives.
type GroundTruth struct {
	Spec   Spec
	Impact []int // sorted
}

// makeTruth computes the impact set. Node-local faults impact exactly the
// victim (when it is in the job). Fabric faults impact the whole job when
// its placement spans more than one leaf group: a stalled spine path stalls
// the BSP iteration for everyone, and C4D may localize any endpoint of the
// affected connections.
func makeTruth(s Spec, t *topo.Topology, jobNodes []int) GroundTruth {
	gt := GroundTruth{Spec: s}
	switch {
	case s.Kind.nodeLocal():
		if slices.Contains(jobNodes, s.Node) {
			gt.Impact = []int{s.Node}
		}
	case s.Kind == LinkFlap || s.Kind == PacketDrop || s.Kind == SpineOutage:
		groups := map[int]bool{}
		for _, n := range jobNodes {
			groups[t.Group(n)] = true
		}
		if len(groups) > 1 {
			gt.Impact = slices.Clone(jobNodes)
			slices.Sort(gt.Impact)
		}
	}
	return gt
}

// Relevant reports whether the fault can impact the job at all.
func (gt GroundTruth) Relevant() bool { return len(gt.Impact) > 0 }

// Matches reports whether a C4D finding is attributable to this fault. It
// applies the streaming scorer's rule to the finding's Detection, so both
// scorers attribute alike: the blamed node, or for a connection-scope
// finding either endpoint, must be impacted.
func (gt GroundTruth) Matches(ev c4d.Event) bool { return gt.matchesDetection(ev.Detection()) }

// matchesDetection is the one attribution rule: the detection fires inside
// the fault's active window (plus grace) and names at least one impacted
// node as a suspect.
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

// ExpectedCauses returns the RCA root-cause kinds considered a correct
// classification for this fault archetype.
func (k Kind) ExpectedCauses() []cluster.FaultKind {
	switch k {
	case Straggler, Crash:
		// Compute-side faults: the crash-cause taxonomy's GPU-side
		// entries.
		return []cluster.FaultKind{cluster.FaultCUDAError, cluster.FaultECCNVLink}
	default:
		// Fabric- and NIC-side faults surface as transport-level causes.
		return []cluster.FaultKind{
			cluster.FaultACKTimeout, cluster.FaultNCCLTimeout, cluster.FaultNetworkOther,
		}
	}
}

// Score aggregates a diagnosis campaign's confusion counts. It is
// serialized as-is into campaign JSON reports; the derived ratios
// (Precision, Recall, RCAAccuracy) are methods so report and rendering
// can never drift apart.
type Score struct {
	// Events is the number of C4D findings emitted.
	Events int `json:"events"`
	// TP counts findings attributable to an injected fault; FP the rest.
	TP int `json:"tp"`
	FP int `json:"fp"`
	// Relevant counts injected faults that could impact the job; Detected
	// those with at least one attributable finding.
	Relevant int `json:"relevant"`
	Detected int `json:"detected"`
	// RCAEvents counts true-positive findings classified by the RCA
	// service; RCAHits those whose top-ranked cause matches the injected
	// fault's archetype.
	RCAEvents int `json:"rca_events"`
	RCAHits   int `json:"rca_hits"`
}

// Precision is TP/(TP+FP); 1.0 when no findings were emitted.
func (s Score) Precision() float64 {
	if s.Events == 0 {
		return 1
	}
	return float64(s.TP) / float64(s.Events)
}

// Recall is Detected/Relevant; 1.0 when no relevant fault was injected.
func (s Score) Recall() float64 {
	if s.Relevant == 0 {
		return 1
	}
	return float64(s.Detected) / float64(s.Relevant)
}

// RCAAccuracy is RCAHits/RCAEvents; 1.0 when nothing was classified.
func (s Score) RCAAccuracy() float64 {
	if s.RCAEvents == 0 {
		return 1
	}
	return float64(s.RCAHits) / float64(s.RCAEvents)
}

// Add accumulates another score (for campaign-level aggregation).
func (s Score) Add(o Score) Score {
	return Score{
		Events: s.Events + o.Events, TP: s.TP + o.TP, FP: s.FP + o.FP,
		Relevant: s.Relevant + o.Relevant, Detected: s.Detected + o.Detected,
		RCAEvents: s.RCAEvents + o.RCAEvents, RCAHits: s.RCAHits + o.RCAHits,
	}
}

// ScoreEvents scores a finding stream against the injected ground truth.
// When an analyzer is supplied, each true-positive finding is additionally
// classified and checked against the matched fault's expected causes.
func ScoreEvents(events []c4d.Event, truths []GroundTruth, analyzer *rca.Analyzer) Score {
	sc := Score{Events: len(events)}
	detected := make([]bool, len(truths))
	for _, ev := range events {
		var matched []int
		for i, gt := range truths {
			if gt.Matches(ev) {
				matched = append(matched, i)
				detected[i] = true
			}
		}
		if len(matched) == 0 {
			sc.FP++
			continue
		}
		sc.TP++
		if analyzer == nil {
			continue
		}
		sc.RCAEvents++
		top := analyzer.Classify(ev).Top().Kind
		for _, i := range matched {
			if slices.Contains(truths[i].Spec.Kind.ExpectedCauses(), top) {
				sc.RCAHits++
				break
			}
		}
	}
	for i, gt := range truths {
		if !gt.Relevant() {
			continue
		}
		sc.Relevant++
		if detected[i] {
			sc.Detected++
		}
	}
	return sc
}
