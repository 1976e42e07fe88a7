package c4d

import (
	"fmt"

	"c4/internal/accl"
	"c4/internal/sim"
)

// Detection is one finding expressed in the streaming vocabulary: the
// instant the threshold crossed, the syndrome, and the set of suspect
// nodes. Where Event is the batch master's per-window verdict (its Time is
// quantized to the reporting tick), a Detection carries the exact firing
// instant, which is what time-to-detect scoring measures.
type Detection struct {
	At       sim.Time
	Comm     int
	Syndrome Syndrome
	Suspects []int
	// Severity is a unitless badness factor (slowdown multiple, stall age
	// in seconds), mirroring Event.Severity.
	Severity float64
	Detail   string
}

func (d Detection) String() string {
	return fmt.Sprintf("[%v] %v suspects %v x%.1f (%s)",
		d.At, d.Syndrome, d.Suspects, d.Severity, d.Detail)
}

// Detection converts a batch finding to the streaming shape: the blamed
// node, plus the peer for connection-scope findings. It lets one scorer
// compare batch and online arms on equal terms.
func (e Event) Detection() Detection {
	suspects := []int{e.Node}
	if e.Scope == ScopeConnection && e.Peer >= 0 {
		suspects = append(suspects, e.Peer)
	}
	return Detection{
		At: e.Time, Comm: e.Comm, Syndrome: e.Syndrome,
		Suspects: suspects, Severity: e.Severity, Detail: e.Detail,
	}
}

// Detections converts a batch event stream wholesale.
func Detections(events []Event) []Detection {
	out := make([]Detection, len(events))
	for i, e := range events {
		out[i] = e.Detection()
	}
	return out
}

// Detector is the analysis half of a C4D deployment, extracted so the
// reporting fleet can drive either the batch master (windowed Analyze
// passes) or a test double, and so callers can reason about both the
// batch and the streaming analyzers through one vocabulary.
type Detector interface {
	// RegisterComm and UnregisterComm track communicator membership.
	RegisterComm(accl.CommInfo)
	UnregisterComm(comm int)
	// Ingest absorbs one agent report into detector state. An
	// implementation must not retain the report's slices, as an
	// accl.StatsSink must not retain an event's: the fleet reuses their
	// backing arrays for the agent's next batch.
	Ingest(Report)
	// Analyze runs the detectors over everything ingested since the last
	// pass.
	Analyze(now sim.Time)
	// Active reports whether the detector holds evidence that could still
	// ripen into a finding without any further records — the guard that
	// lets the fleet skip analysis passes over a fully idle deployment
	// while a silent (hanging) job still gets its timeout checks.
	Active() bool
}
