package faults

import (
	"testing"

	"c4/internal/accl"
	"c4/internal/c4p"
	"c4/internal/sim"
	"c4/internal/topo"
	"c4/internal/workload"
)

// TestPathControlPolicies pins the one path-control policy type: every
// accepted name parses to its kind, each kind renders as it always has,
// and only C4P dynamic re-weights QPs, never through PinnedProvider.
func TestPathControlPolicies(t *testing.T) {
	top := topo.MustNew(topo.MultiJobTestbed(8))
	for _, tc := range []struct {
		names    []string
		kind     c4p.ProviderKind
		label    string
		adaptive bool
	}{
		{[]string{"baseline"}, c4p.Baseline, "baseline", false},
		{[]string{"", "c4p"}, c4p.C4PStatic, "c4p-gte", false},
		{[]string{"c4p-dynamic"}, c4p.C4PDynamic, "c4p-dynamic", true},
	} {
		for _, name := range tc.names {
			if k, err := c4p.ParseProviderKind(name); err != nil || k != tc.kind {
				t.Errorf("ParseProviderKind(%q) = %v, %v; want %v", name, k, err, tc.kind)
			}
		}
		if got := tc.kind.String(); got != tc.label {
			t.Errorf("%v renders %q, want %q", tc.kind, got, tc.label)
		}
		prov := tc.kind.On(1)(top)
		if got := prov.Adaptive(); got != tc.adaptive {
			t.Errorf("%v: Adaptive = %v, want %v", tc.kind, got, tc.adaptive)
		}
		if (PinnedProvider{prov}).Adaptive() {
			t.Errorf("PinnedProvider over %v re-weights QPs", tc.kind)
		}
	}
	for _, name := range []string{"ecmp", "c4p-gte", "static", "C4P", " c4p", "c4p-dynamic "} {
		if k, err := c4p.ParseProviderKind(name); err == nil {
			t.Errorf("ParseProviderKind(%q) = %v, want an error", name, k)
		}
	}
}

// TestRigDynamicPolicyReweightsQPs runs one rig job per policy with a lossy
// uplink under one of its QPs. Under C4P dynamic the QPs of a plane end up
// carrying different shares of a transfer; under C4P static every share
// stays equal.
func TestRigDynamicPolicyReweightsQPs(t *testing.T) {
	unequal := func(kind c4p.ProviderKind) int {
		rec := &accl.Recorder{}
		fabric := topo.MultiJobTestbed(8)
		fabric.Nodes = 16
		nodes := Interleave(4)
		r, err := NewRig(RigConfig{
			Fabric:   fabric,
			Job:      workload.TenantSpec("policy", workload.GPT22B, nodes, 550*sim.Millisecond),
			QPs:      4,
			Provider: kind.On(1),
			Seed:     2,
			NoC4D:    true,
			Stream:   func(*sim.Engine) accl.StatsSink { return rec },
			Faults: []Spec{{Kind: PacketDrop, Group: 0, Plane: 0, Uplink: 0,
				Severity: 0.5, Start: 2 * sim.Second, Duration: sim.Minute}},
		})
		if err != nil {
			t.Fatal(err)
		}
		r.Job.Run(1<<30, nil)
		if err := r.Run(20 * sim.Second); err != nil {
			t.Fatal(err)
		}
		// Shares of one plane of one transfer: equal unless re-weighted.
		type key struct{ comm, seq, src, dst, plane int }
		first := map[key]float64{}
		n := 0
		for _, m := range rec.Messages {
			k := key{m.Comm, m.Seq, m.SrcNode, m.DstNode, m.Plane}
			if b, ok := first[k]; !ok {
				first[k] = m.Bytes
			} else if b != m.Bytes {
				n++
			}
		}
		if len(rec.Messages) == 0 {
			t.Fatalf("%v: no transport records", kind)
		}
		return n
	}
	if n := unequal(c4p.C4PStatic); n != 0 {
		t.Errorf("C4P static: %d re-weighted shares, want 0", n)
	}
	if n := unequal(c4p.C4PDynamic); n == 0 {
		t.Error("C4P dynamic: every share equal, want QPs re-weighted")
	}
}
