package accl

import (
	"fmt"

	"c4/internal/netsim"
	"c4/internal/sim"
	"c4/internal/trace"
)

// transfer moves `bytes` from src node to dst node, striped across the
// communicator's rails. Within each rail the bytes are split evenly
// between the NIC's two planes (the bonding driver transmits half per
// physical port — C4P's "dual-port balance" keeps this true end to end),
// and within a plane across that plane's QPs by weight (uniform by
// default; throughput-proportional under C4P dynamic load balance).
// onDone fires with the completion time of the last share.
//
// If no QP on a rail can obtain a healthy path the rail's share stalls and
// retries; in the meantime the operation hangs, which is exactly the
// communication-hang syndrome C4D observes.
//
// The xfer and its shares come from the communicator's free lists, and
// each share is the handler of the flow that carries it; a warm transfer
// allocates nothing.
func (c *Communicator) transfer(o *Op, src, dst int, bytes float64, onDone func(end sim.Time)) {
	// The edge span covers the whole member send/recv (all rails, all QP
	// shares) as a child of the collective op span. A transfer that never
	// finds transport leaves it open — the hang is visible in the trace.
	x := c.freeXfers
	if x != nil {
		c.freeXfers = x.next
	} else {
		x = new(xfer)
	}
	*x = xfer{o: o, onDone: onDone}
	if tr := c.tracer(); tr.Enabled() {
		x.span = tr.Start(o.span, "xfer", fmt.Sprintf("n%d->n%d", src, dst))
	}
	rails := c.cfg.Rails
	perRail := bytes / float64(len(rails))
	for _, rail := range rails {
		conn, err := c.getConn(src, dst, rail)
		if err != nil {
			continue
		}
		x.pending++
		x.send(conn, perRail)
	}
	// With no transport anywhere (pending still 0) the operation hangs, as
	// it would in RoCE.
}

// xfer is one transfer in flight. pending counts its outstanding parts: a
// rail send counts one until it plans its shares, and each share counts one
// until its flow completes.
type xfer struct {
	o       *Op
	span    *trace.Span
	onDone  func(end sim.Time)
	pending int
	lastEnd sim.Time
	next    *xfer // the free list's link while recycled
}

// send ships railBytes over one connection, retrying while the connection
// has no healthy path at all.
func (x *xfer) send(conn *Conn, railBytes float64) {
	c := x.o.comm
	// Flows started here (including after a retry) nest under the edge
	// span.
	defer c.tracer().Scope(x.span)()
	shares := c.planShares(conn, railBytes)
	if len(shares) == 0 {
		c.cfg.Engine.After(sim.Second, func() { x.send(conn, railBytes) })
		return
	}
	x.pending += len(shares) - 1
	start := c.cfg.Engine.Now()
	for _, sh := range shares {
		sh.x, sh.conn, sh.start = x, conn, start
		c.cfg.Net.StartFlow(sh.qp.assign.Path, sh.bits, string(x.o.Type), sh)
	}
}

// finish accounts one completed share. The last one completes the
// transfer and, once onDone returns, recycles the xfer: no share or retry
// refers to it any more.
func (x *xfer) finish(end sim.Time) {
	if end > x.lastEnd {
		x.lastEnd = end
	}
	x.pending--
	if x.pending == 0 {
		x.span.FinishAt(x.lastEnd)
		x.onDone(x.lastEnd)
		c := x.o.comm
		*x = xfer{next: c.freeXfers}
		c.freeXfers = x
	}
}

// share is one QP's part of a rail send, and the handler of the flow that
// carries it.
type share struct {
	x     *xfer
	conn  *Conn
	qp    *QP
	bits  float64
	plane int
	start sim.Time
	next  *share // the free list's link while recycled
}

// FlowDone emits the message's transport record, feeds the QP's measured
// throughput back into its weight, recycles the share and accounts it to
// its transfer.
func (sh *share) FlowDone(*netsim.Flow) {
	x := sh.x
	c := x.o.comm
	end := c.cfg.Engine.Now()
	c.emitMsg(MsgEvent{
		Comm: c.ID, Seq: x.o.Seq,
		SrcNode: sh.conn.Src, DstNode: sh.conn.Dst,
		Rail: sh.conn.Rail, Plane: sh.plane,
		Sport: sh.qp.assign.Sport, QPN: sh.qp.QPN,
		Bytes: sh.bits / 8, Start: sh.start, End: end,
	})
	c.recordThroughput(sh.conn, sh.qp, sh.bits, end-sh.start)
	*sh = share{next: c.freeShares}
	c.freeShares = sh
	x.finish(end)
}

// PathDown asks the provider to repair the share's QP.
func (sh *share) PathDown(f *netsim.Flow) {
	sh.x.o.comm.repairFlow(sh.conn, sh.qp, f)
}

// planShares splits a rail's bytes: half per plane that has at least one
// healthy QP (all to one plane only if the other is completely dark), then
// within each plane proportionally to QP weights. Every healthy QP gets one
// share, taken from the communicator's free list. The result and the
// per-plane grouping are the communicator's scratch, valid until the next
// call.
func (c *Communicator) planShares(conn *Conn, railBytes float64) []*share {
	qps := c.healthyQPs(conn)
	if len(qps) == 0 {
		return nil
	}
	byPlane := &c.byPlane
	for p := range byPlane {
		byPlane[p] = byPlane[p][:0]
	}
	for _, qp := range qps {
		p := qp.assign.Path.SrcPort.Plane
		byPlane[p] = append(byPlane[p], qp)
	}
	livePlanes := 0
	for _, qs := range byPlane {
		if len(qs) > 0 {
			livePlanes++
		}
	}
	out := c.planned[:0]
	for p, qs := range byPlane {
		if len(qs) == 0 {
			continue
		}
		planeBits := railBytes * 8 / float64(livePlanes)
		var wsum float64
		for _, qp := range qs {
			wsum += qp.weight
		}
		for _, qp := range qs {
			w := 1.0 / float64(len(qs))
			if wsum > 0 {
				w = qp.weight / wsum
			}
			sh := c.freeShares
			if sh != nil {
				c.freeShares = sh.next
			} else {
				sh = new(share)
			}
			*sh = share{qp: qp, bits: planeBits * w, plane: p}
			out = append(out, sh)
		}
	}
	c.planned = out
	return out
}

// repairFlow asks the provider for a replacement path after a failure. On
// success the in-flight data is rerouted; on failure the flow stays
// stalled and resumes if the link recovers.
func (c *Communicator) repairFlow(conn *Conn, qp *QP, fl *netsim.Flow) {
	var idx int
	for i, q := range conn.QPs {
		if q == qp {
			idx = i
			break
		}
	}
	req := ConnRequest{
		Comm: c.ID, SrcNode: conn.Src, DstNode: conn.Dst, Rail: conn.Rail,
		QPN: qp.QPN, QPIndex: idx, QPCount: len(conn.QPs),
	}
	as, err := c.cfg.Provider.Repair(req, qp.assign)
	if err != nil {
		qp.broken = true
		return
	}
	qp.assign = as
	qp.broken = false
	c.cfg.Net.Reroute(fl, as.Path)
}
