package c4d

import (
	"fmt"

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
