package accl

import (
	"c4/internal/netsim"
	"c4/internal/sim"
	"c4/internal/trace"
)

// Result summarizes a completed collective.
type Result struct {
	Op    OpType
	Algo  string
	Seq   int
	Bytes float64 // payload bytes per rank (nccl-tests "size")
	Start sim.Time
	End   sim.Time
	// BusGbps is the nccl-tests bus bandwidth: the hardware-utilization
	// metric the paper plots in Figs 9, 10 and 12.
	BusGbps float64
	// AlgGbps is the algorithmic bandwidth (size / time).
	AlgGbps float64
}

// Op is an in-flight collective.
type Op struct {
	comm    *Communicator
	Type    OpType
	Algo    string
	Seq     int
	Bytes   float64
	onDone  func(Result)
	started sim.Time // earliest arrival

	// members are the nodes participating in the operation; nil means the
	// whole communicator (every collective). Point-to-point operations
	// scope it to their two endpoints so completion records are not
	// attributed to bystander ranks.
	members []int

	pendingEdges int
	lastEnd      sim.Time
	completed    bool

	span *trace.Span // op-lifetime span; nil when tracing is off
}

// tracer returns the simulation's tracer, which rides the network the
// communicator is bound to: one wiring point (Network.Trace) covers both
// layers, and flow spans nest under op spans via the tracer's scope.
func (c *Communicator) tracer() *trace.Tracer { return c.cfg.Net.Trace }

// Done reports whether the collective has finished.
func (o *Op) Done() bool { return o.completed }

// busFactor returns busbw = algbw * factor for the op type, following the
// nccl-tests conventions.
func busFactor(op OpType, n int) float64 {
	if n <= 1 {
		return 1
	}
	switch op {
	case OpAllReduce:
		return 2 * float64(n-1) / float64(n)
	case OpAllGather, OpReduceScatter:
		return float64(n-1) / float64(n)
	default: // broadcast, sendrecv
		return 1
	}
}

// edgeFactor returns the bytes each ring edge carries per payload byte.
func edgeFactor(op OpType, n int) float64 {
	// For ring algorithms the per-edge traffic equals busFactor * size:
	// allreduce moves 2S(N-1)/N per edge, allgather/reducescatter S(N-1)/N.
	return busFactor(op, n)
}

// AllReduce starts a ring allreduce of `bytes` per rank. arrivals[i] is the
// absolute time the i-th member node enters the operation (BSP workers
// arrive when their compute finishes); nil means every node is ready now.
// onDone may be nil. Crashed nodes never arrive, so the op never completes
// — the hang syndrome C4D detects.
func (c *Communicator) AllReduce(bytes float64, arrivals []sim.Time, onDone func(Result)) *Op {
	return c.startRing(OpAllReduce, bytes, arrivals, onDone)
}

// AllGather starts a ring allgather of `bytes` output per rank.
func (c *Communicator) AllGather(bytes float64, arrivals []sim.Time, onDone func(Result)) *Op {
	return c.startRing(OpAllGather, bytes, arrivals, onDone)
}

// ReduceScatter starts a ring reduce-scatter of `bytes` input per rank.
func (c *Communicator) ReduceScatter(bytes float64, arrivals []sim.Time, onDone func(Result)) *Op {
	return c.startRing(OpReduceScatter, bytes, arrivals, onDone)
}

func (c *Communicator) startRing(op OpType, bytes float64, arrivals []sim.Time, onDone func(Result)) *Op {
	c.seq++
	o := &Op{comm: c, Type: op, Algo: "ring", Seq: c.seq, Bytes: bytes, onDone: onDone}
	arr := c.resolveArrivals(arrivals)
	c.announceArrivals(o, arr)
	o.startSpan()
	if c.cfg.Stepwise {
		c.runRingStepwise(o, arr)
	} else {
		c.runRingFluid(o, arr)
	}
	return o
}

// resolveArrivals normalizes the arrival vector; crashed nodes get MaxTime.
func (c *Communicator) resolveArrivals(arrivals []sim.Time) []sim.Time {
	now := c.cfg.Engine.Now()
	arr := make([]sim.Time, len(c.nodes))
	for i := range c.nodes {
		at := now
		if i < len(arrivals) {
			at = arrivals[i]
			if at < now {
				at = now
			}
		}
		if c.crashed[c.nodes[i]] {
			at = sim.MaxTime
		}
		arr[i] = at
	}
	return arr
}

// announceArrivals emits the operation-layer kernel-start records.
func (c *Communicator) announceArrivals(o *Op, arr []sim.Time) {
	o.started = sim.MaxTime
	arrivals := make([]arrival, len(arr))
	for i, at := range arr {
		if at == sim.MaxTime {
			continue // crashed: no kernel launch ever observed
		}
		if at < o.started {
			o.started = at
		}
		arrivals[i] = arrival{o: o, node: c.nodes[i]}
		c.cfg.Engine.Post(at, &arrivals[i])
	}
}

// arrival is one member's kernel-launch record, posted for the instant it
// enters the operation; one array per op holds every member's.
type arrival struct {
	o    *Op
	node int
}

// Fire emits the record.
func (a *arrival) Fire() {
	o := a.o
	c := o.comm
	c.emitColl(CollEvent{
		Time: c.cfg.Engine.Now(), Comm: c.ID, Seq: o.Seq, Node: a.node,
		Op: o.Type, Algo: o.Algo, Bytes: o.Bytes, Phase: PhaseArrive,
	})
}

// startSpan opens the op's trace span at its earliest arrival, parented
// on the tracer's current scope (the iteration or dpsync context that
// launched the collective). Must run after announceArrivals resolved
// o.started; an op whose every member crashed gets "now" so the span is
// still well-formed.
func (o *Op) startSpan() {
	tr := o.comm.tracer()
	if !tr.Enabled() {
		return
	}
	at := o.started
	if at == sim.MaxTime {
		at = o.comm.cfg.Engine.Now()
	}
	o.span = tr.StartAt(nil, "op", string(o.Type), at)
	o.span.Annotate("algo", o.Algo)
}

// finishEdge accounts one completed ring edge (or tree branch).
func (o *Op) finishEdge(end sim.Time) {
	if end > o.lastEnd {
		o.lastEnd = end
	}
	o.pendingEdges--
	if o.pendingEdges == 0 {
		o.complete()
	}
}

func (o *Op) complete() {
	if o.completed {
		return
	}
	o.completed = true
	c := o.comm
	end := o.lastEnd
	if end < c.cfg.Engine.Now() {
		end = c.cfg.Engine.Now()
	}
	o.span.FinishAt(end)
	nodes := o.members
	if nodes == nil {
		nodes = c.nodes
	}
	for _, node := range nodes {
		if c.crashed[node] {
			continue
		}
		c.emitColl(CollEvent{
			Time: end, Comm: c.ID, Seq: o.Seq, Node: node,
			Op: o.Type, Algo: o.Algo, Bytes: o.Bytes, Phase: PhaseComplete,
		})
	}
	if o.onDone != nil {
		dur := end - o.started
		res := Result{
			Op: o.Type, Algo: o.Algo, Seq: o.Seq, Bytes: o.Bytes,
			Start: o.started, End: end,
		}
		if dur > 0 {
			n := c.TotalGPUs()
			bits := o.Bytes * 8
			res.AlgGbps = bits / dur.Seconds() / 1e9
			res.BusGbps = res.AlgGbps * busFactor(o.Type, n)
		}
		o.onDone(res)
	}
}

// runRingFluid models a perfectly pipelined ring: every inter-node edge
// carries its full traffic as one continuous transfer starting when both
// endpoints are ready; the op completes when the slowest edge drains. This
// is the steady-state fluid limit of the chunked ring and matches how
// traffic-engineering papers reason about collective throughput.
func (c *Communicator) runRingFluid(o *Op, arr []sim.Time) {
	m := len(c.nodes)
	if m == 1 {
		c.runSingleNode(o, arr[0])
		return
	}
	n := c.TotalGPUs()
	edgeBytes := o.Bytes * edgeFactor(o.Type, n)
	o.pendingEdges = m
	done := o.finishEdge
	edges := make([]ringEdge, m)
	for i := 0; i < m; i++ {
		src, dst := i, (i+1)%m
		start := arr[src]
		if arr[dst] > start {
			start = arr[dst]
		}
		if start == sim.MaxTime {
			continue // a crashed endpoint: this edge never starts
		}
		c.scheduleWait(o, arr, src, dst, start)
		edges[i] = ringEdge{o: o, src: c.nodes[src], dst: c.nodes[dst], bytes: edgeBytes, done: done}
		c.cfg.Engine.Post(start, &edges[i])
	}
}

// ringEdge is one fluid ring edge, posted for the instant both of its
// endpoints are ready; one array per op holds every edge.
type ringEdge struct {
	o        *Op
	src, dst int
	bytes    float64
	done     func(end sim.Time)
}

// Fire starts the edge's transfer.
func (e *ringEdge) Fire() { e.o.comm.transfer(e.o, e.src, e.dst, e.bytes, e.done) }

// scheduleWait emits a receiver-driven wait record when a sender was ready
// before its receiver.
func (c *Communicator) scheduleWait(o *Op, arr []sim.Time, src, dst int, start sim.Time) {
	if arr[dst] > arr[src] && arr[dst] != sim.MaxTime {
		dur := arr[dst] - arr[src]
		c.cfg.Engine.Schedule(start, func() {
			c.emitWait(WaitEvent{
				Time: start, Comm: c.ID, Seq: o.Seq,
				Waiter: c.nodes[src], On: c.nodes[dst], Dur: dur,
			})
		})
	}
}

// runSingleNode models an intra-node collective: a single transfer across
// the node's NVLink fabric.
func (c *Communicator) runSingleNode(o *Op, arrive sim.Time) {
	if arrive == sim.MaxTime {
		return
	}
	bits := o.Bytes * 8 * busFactor(o.Type, c.cfg.Net.Topo.Spec.GPUsPerNode)
	node := c.nodes[0]
	o.pendingEdges = 1
	c.cfg.Engine.Schedule(arrive, func() {
		path := c.cfg.Net.Topo.IntraNodePath(node)
		restore := c.tracer().Scope(o.span)
		c.cfg.Net.StartFlow(path, bits, string(o.Type), netsim.FlowFunc(func(*netsim.Flow) {
			o.finishEdge(c.cfg.Engine.Now())
		}))
		restore()
	})
}

// runRingStepwise executes the ring chunk by chunk with receiver-driven
// hand-offs: step s of edge i starts only when (a) edge i finished step
// s-1, (b) the data from upstream edge i-1 arrived, and (c) the receiver
// finished its own step s-1 and re-posted buffers. The resulting per-step
// message stream is what C4D's transport-layer monitoring analyzes.
func (c *Communicator) runRingStepwise(o *Op, arr []sim.Time) {
	m := len(c.nodes)
	if m == 1 {
		c.runSingleNode(o, arr[0])
		return
	}
	n := c.TotalGPUs()
	steps := 2 * (m - 1) // the algorithmic ring steps
	edgeBytes := o.Bytes * edgeFactor(o.Type, n)
	chunk := edgeBytes / float64(steps)

	// ends[i] holds the completion time of each finished step of edge i;
	// inFlight guards against double-launching a step.
	ends := make([][]sim.Time, m)
	inFlight := make([]bool, m)
	o.pendingEdges = m

	// readyAt reports when the dependencies of (edge i, next step) are all
	// met, or false if some dependency has not completed yet. Step s of
	// edge i needs: both endpoints arrived; edge i's own step s-1 done
	// (serialized sends); upstream edge i-1's step s-1 done (the data to
	// forward); receiver edge i+1's step s-1 done (buffers re-posted).
	readyAt := func(i int) (sim.Time, bool) {
		s := len(ends[i])
		src, dst := i, (i+1)%m
		if arr[src] == sim.MaxTime || arr[dst] == sim.MaxTime {
			return 0, false
		}
		at := arr[src]
		if arr[dst] > at {
			at = arr[dst]
		}
		if s > 0 {
			for _, j := range []int{i, (i - 1 + m) % m, (i + 1) % m} {
				if len(ends[j]) < s {
					return 0, false
				}
				if t := ends[j][s-1]; t > at {
					at = t
				}
			}
		}
		return at, true
	}

	var try func(i int)
	try = func(i int) {
		if inFlight[i] || len(ends[i]) >= steps {
			return
		}
		at, ok := readyAt(i)
		if !ok {
			return
		}
		s := len(ends[i])
		src, dst := i, (i+1)%m
		if s == 0 {
			c.scheduleWait(o, arr, src, dst, at)
		}
		inFlight[i] = true
		c.cfg.Engine.Schedule(at, func() {
			c.transfer(o, c.nodes[src], c.nodes[dst], chunk, func(end sim.Time) {
				inFlight[i] = false
				ends[i] = append(ends[i], end)
				if len(ends[i]) == steps {
					o.finishEdge(end)
				} else {
					try(i)
				}
				try((i + 1) % m)
				try((i - 1 + m) % m)
			})
		})
	}
	for i := 0; i < m; i++ {
		try(i)
	}
}
