package accl

import "c4/internal/sim"

// The monitoring schema mirrors the paper's Fig 6: ACCL is instrumented at
// the communicator, operation, and transport layers, emitting time-series
// records to a StatsSink — the C4D master, which the paper's per-worker C4
// agents forward them to.

// CommInfo describes a communicator at creation (comm-stats).
type CommInfo struct {
	Comm  int
	Nodes []int
}

// OpType labels a collective operation.
type OpType string

// Collective operation types supported by the simulated ACCL.
const (
	OpAllReduce     OpType = "allreduce"
	OpAllGather     OpType = "allgather"
	OpReduceScatter OpType = "reducescatter"
	OpBroadcast     OpType = "broadcast"
	// OpSendRecv is the point-to-point transfer pipeline parallelism
	// exchanges between adjacent stages (activations forward, gradients
	// backward) — NCCL's send/recv pair.
	OpSendRecv OpType = "sendrecv"
)

// CollPhase distinguishes records within one collective (coll-stats /
// rank-stats): a worker arriving at the operation (communication kernel
// launched) and the operation completing on that worker.
type CollPhase int

const (
	// PhaseArrive is recorded when a worker enters the collective.
	PhaseArrive CollPhase = iota
	// PhaseComplete is recorded when the collective finishes on a worker.
	PhaseComplete
)

// CollEvent is one operation-layer record.
type CollEvent struct {
	Time  sim.Time
	Comm  int
	Seq   int // per-communicator operation sequence number
	Node  int
	Op    OpType
	Algo  string
	Bytes float64
	Phase CollPhase
}

// MsgEvent is one transport-layer record: a message (or message share on
// one QP) completing between two workers (conn-stats).
type MsgEvent struct {
	Comm    int
	Seq     int
	SrcNode int
	DstNode int
	Rail    int
	Plane   int // physical source port used
	Sport   uint16
	QPN     int
	Bytes   float64
	Start   sim.Time
	End     sim.Time
}

// Duration reports the message's transfer time.
func (m MsgEvent) Duration() sim.Time { return m.End - m.Start }

// WaitEvent records receiver-driven blocking: Waiter was ready to send but
// had to wait for On to post its receive buffer. Chains of these events are
// what C4D's non-communication-slow detector walks (§III-A).
type WaitEvent struct {
	Time   sim.Time // when the wait ended
	Comm   int
	Seq    int
	Waiter int // node that was blocked
	On     int // node it waited for
	Dur    sim.Time
}

// StatsSink receives monitoring records. Implementations must not retain
// slices passed in events. The zero-cost NullSink discards everything.
type StatsSink interface {
	OnCommCreate(CommInfo)
	OnCommClose(comm int)
	OnCollective(CollEvent)
	OnMessage(MsgEvent)
	OnWait(WaitEvent)
}

// NullSink discards all records.
type NullSink struct{}

// OnCommCreate implements StatsSink.
func (NullSink) OnCommCreate(CommInfo) {}

// OnCommClose implements StatsSink.
func (NullSink) OnCommClose(int) {}

// OnCollective implements StatsSink.
func (NullSink) OnCollective(CollEvent) {}

// OnMessage implements StatsSink.
func (NullSink) OnMessage(MsgEvent) {}

// OnWait implements StatsSink.
func (NullSink) OnWait(WaitEvent) {}

// fanoutSink forwards every record to each member in order.
type fanoutSink []StatsSink

// Fanout returns a StatsSink that forwards every record to each sink in
// order (nil sinks are dropped). It is the single instrumentation point
// that lets one communicator feed several monitoring pipelines at once —
// the batch C4D master and the streaming telemetry pipeline racing it.
func Fanout(sinks ...StatsSink) StatsSink {
	kept := make(fanoutSink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			kept = append(kept, s)
		}
	}
	if len(kept) == 1 {
		return kept[0]
	}
	return kept
}

// OnCommCreate implements StatsSink.
func (f fanoutSink) OnCommCreate(ci CommInfo) {
	for _, s := range f {
		s.OnCommCreate(ci)
	}
}

// OnCommClose implements StatsSink.
func (f fanoutSink) OnCommClose(comm int) {
	for _, s := range f {
		s.OnCommClose(comm)
	}
}

// OnCollective implements StatsSink.
func (f fanoutSink) OnCollective(ev CollEvent) {
	for _, s := range f {
		s.OnCollective(ev)
	}
}

// OnMessage implements StatsSink.
func (f fanoutSink) OnMessage(ev MsgEvent) {
	for _, s := range f {
		s.OnMessage(ev)
	}
}

// OnWait implements StatsSink.
func (f fanoutSink) OnWait(ev WaitEvent) {
	for _, s := range f {
		s.OnWait(ev)
	}
}

// Recorder is an in-memory StatsSink that keeps every record, for tests
// and the offline analyzer demo.
type Recorder struct {
	Comms       []CommInfo
	Closed      []int
	Collectives []CollEvent
	Messages    []MsgEvent
	Waits       []WaitEvent
}

// OnCommCreate implements StatsSink.
func (r *Recorder) OnCommCreate(ci CommInfo) { r.Comms = append(r.Comms, ci) }

// OnCommClose implements StatsSink.
func (r *Recorder) OnCommClose(comm int) { r.Closed = append(r.Closed, comm) }

// OnCollective implements StatsSink.
func (r *Recorder) OnCollective(ev CollEvent) { r.Collectives = append(r.Collectives, ev) }

// OnMessage implements StatsSink.
func (r *Recorder) OnMessage(ev MsgEvent) { r.Messages = append(r.Messages, ev) }

// OnWait implements StatsSink.
func (r *Recorder) OnWait(ev WaitEvent) { r.Waits = append(r.Waits, ev) }

// Reset clears all recorded events.
func (r *Recorder) Reset() {
	r.Comms, r.Collectives, r.Messages, r.Waits, r.Closed = nil, nil, nil, nil, nil
}

func (c *Communicator) emitColl(ev CollEvent) {
	if c.cfg.Sink != nil {
		c.cfg.Sink.OnCollective(ev)
	}
}

func (c *Communicator) emitMsg(ev MsgEvent) {
	if c.cfg.Sink != nil {
		c.cfg.Sink.OnMessage(ev)
	}
}

func (c *Communicator) emitWait(ev WaitEvent) {
	if c.cfg.Sink != nil {
		c.cfg.Sink.OnWait(ev)
	}
}
