// Package telemetry is the streaming counterpart of the batch C4D
// pipeline: where the agent fleet buffers a full reporting window and the
// master recomputes every detector over it from scratch (detection latency
// quantized to the tick, per-pass cost growing with fleet size), this
// package ingests ACCL monitoring records as they happen through bounded
// per-node ring collectors, merges them in deterministic event-time order,
// folds them into incremental aggregates (EWMA, fixed-bin streaming
// quantile sketch, O(1)-per-record delay-matrix updates) and lets an
// online detector fire the instant a threshold crosses — sub-tick
// time-to-detect instead of waiting for the next Analyze pass.
//
// The same record stream serializes to a JSONL format (stream.go) that
// `c4 replay` replays offline for post-hoc triage, and the online/*
// scenario family (scenarios.go) races the streaming detector against
// batch C4D on identical fault schedules, scoring TimeToDetect against
// the fault-injection ground truth.
package telemetry

import (
	"fmt"

	"c4/internal/accl"
	"c4/internal/sim"
)

// Kind labels a stream record.
type Kind uint8

// The five record kinds, mirroring accl.StatsSink's methods.
const (
	// KindCommCreate announces a communicator and its membership.
	KindCommCreate Kind = iota
	// KindCommClose retires a communicator.
	KindCommClose
	// KindColl is an operation-layer record (kernel arrive/complete).
	KindColl
	// KindMsg is a transport-layer record (message completion).
	KindMsg
	// KindWait is a receiver-driven blocking record.
	KindWait
)

func (k Kind) String() string {
	switch k {
	case KindCommCreate:
		return "comm-create"
	case KindCommClose:
		return "comm-close"
	case KindColl:
		return "coll"
	case KindMsg:
		return "msg"
	case KindWait:
		return "wait"
	}
	return "unknown"
}

// Record is one telemetry stream element: an ACCL monitoring record
// stamped with its event time and the node whose collector captured it.
// Exactly one payload pointer is set, matching Kind.
type Record struct {
	Time sim.Time
	Node int // collection point; -1 for communicator control records
	Kind Kind
	Comm int

	Nodes []int // KindCommCreate: membership
	Coll  *accl.CollEvent
	Msg   *accl.MsgEvent
	Wait  *accl.WaitEvent
}

func (r Record) String() string {
	return fmt.Sprintf("[%v] %v n%d comm %d", r.Time, r.Kind, r.Node, r.Comm)
}

// RecordOfColl wraps an operation record; its event time is the record's.
func RecordOfColl(ev accl.CollEvent) Record {
	cp := ev
	return Record{Time: ev.Time, Node: ev.Node, Kind: KindColl, Comm: ev.Comm, Coll: &cp}
}

// RecordOfMsg wraps a transport record, collected on the sending side
// (where the QP counters live) at message completion.
func RecordOfMsg(ev accl.MsgEvent) Record {
	cp := ev
	return Record{Time: ev.End, Node: ev.SrcNode, Kind: KindMsg, Comm: ev.Comm, Msg: &cp}
}

// RecordOfWait wraps a blocking record, collected on the waiting side.
func RecordOfWait(ev accl.WaitEvent) Record {
	cp := ev
	return Record{Time: ev.Time, Node: ev.Waiter, Kind: KindWait, Comm: ev.Comm, Wait: &cp}
}
