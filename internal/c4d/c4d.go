// Package c4d implements the C4D (C4 Diagnose) subsystem of the paper
// (§III-A). ACCL's runtime statistics flow into a central master — in the
// paper through per-worker C4 agents, here straight from ACCL, since the
// master is the accl.StatsSink — which folds each record into its
// communicator's window state and, every reporting period, detects the
// four production syndromes — communication hang, non-communication hang,
// communication slow, and non-communication slow — and localizes the
// faulty component so the job steering service can isolate it and restart
// the job within seconds instead of the hours-to-days of manual diagnosis
// the paper reports.
package c4d

import (
	"fmt"

	"c4/internal/sim"
)

// Syndrome classifies a detected anomaly.
type Syndrome int

// The four syndromes of §III-A.
const (
	// CommHang: workers entered a collective but transport progress
	// stopped (dead NIC, dead link, peer process killed mid-operation).
	CommHang Syndrome = iota
	// NonCommHang: a worker never entered a collective its peers entered
	// (crashed process, stuck data loader, CUDA error before the kernel).
	NonCommHang
	// CommSlow: transport-level transfer times are abnormally long for a
	// connection, a source NIC (matrix row) or a destination NIC (column).
	CommSlow
	// NonCommSlow: a worker repeatedly arrives late at collectives,
	// stalling the receiver-driven ring behind it (slow GPU, data loader,
	// CPU contention).
	NonCommSlow
)

func (s Syndrome) String() string {
	switch s {
	case CommHang:
		return "comm-hang"
	case NonCommHang:
		return "non-comm-hang"
	case CommSlow:
		return "comm-slow"
	case NonCommSlow:
		return "non-comm-slow"
	}
	return "unknown"
}

// Scope says which component a finding localizes to.
type Scope int

// Localization scopes, in decreasing specificity.
const (
	// ScopeConnection blames a single (src,dst) connection — one link.
	ScopeConnection Scope = iota
	// ScopeNodeTx blames a node's transmit side (matrix row).
	ScopeNodeTx
	// ScopeNodeRx blames a node's receive side (matrix column).
	ScopeNodeRx
	// ScopeNode blames a whole node (hangs, stragglers).
	ScopeNode
)

func (s Scope) String() string {
	switch s {
	case ScopeConnection:
		return "connection"
	case ScopeNodeTx:
		return "node-tx"
	case ScopeNodeRx:
		return "node-rx"
	case ScopeNode:
		return "node"
	}
	return "unknown"
}

// Event is one C4D finding, delivered to the job steering service.
type Event struct {
	Time     sim.Time
	Comm     int
	Syndrome Syndrome
	Scope    Scope
	// Node is the blamed node (always set; for ScopeConnection it is the
	// source end, with Peer the destination).
	Node int
	Peer int // -1 unless ScopeConnection
	// Severity is a unitless badness factor (e.g. slowdown multiple).
	Severity float64
	Detail   string
}

func (e Event) String() string {
	if e.Scope == ScopeConnection {
		return fmt.Sprintf("[%v] %v %v n%d->n%d x%.1f (%s)",
			e.Time, e.Syndrome, e.Scope, e.Node, e.Peer, e.Severity, e.Detail)
	}
	return fmt.Sprintf("[%v] %v %v n%d x%.1f (%s)",
		e.Time, e.Syndrome, e.Scope, e.Node, e.Severity, e.Detail)
}
