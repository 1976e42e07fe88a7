package faults

import (
	"testing"

	"c4/internal/c4d"
	"c4/internal/sim"
	"c4/internal/topo"
)

func TestImpactSets(t *testing.T) {
	top := topo.MustNew(topo.MultiJobTestbed(8))
	spread := []int{0, 8, 1, 9}
	packed := []int{0, 1, 2, 3}
	flap := Spec{Kind: LinkFlap, Group: 0, Uplink: 1, Severity: 0.5,
		Period: sim.Second, Duration: sim.Minute}

	if gt := makeTruth(flap, top, spread); len(gt.Impact) != len(spread) {
		t.Fatalf("spread fabric impact = %v, want all job nodes", gt.Impact)
	}
	if gt := makeTruth(flap, top, packed); gt.Relevant() {
		t.Fatalf("packed single-group job impacted by fabric fault: %v", gt.Impact)
	}
	nic := Spec{Kind: NICDegrade, Node: 9, Severity: 0.5, Duration: sim.Minute}
	if gt := makeTruth(nic, top, spread); len(gt.Impact) != 1 || gt.Impact[0] != 9 {
		t.Fatalf("NIC impact = %v, want [9]", gt.Impact)
	}
	if gt := makeTruth(nic, top, packed); gt.Relevant() {
		t.Fatalf("NIC fault on non-member impacted the job: %v", gt.Impact)
	}
}

func TestScoreEvents(t *testing.T) {
	top := topo.MustNew(topo.MultiJobTestbed(8))
	nodes := []int{0, 8, 1, 9}
	truths := []GroundTruth{
		makeTruth(Spec{Kind: NICDegrade, Node: 8, Severity: 0.5,
			Start: 10 * sim.Second, Duration: 60 * sim.Second}, top, nodes),
		// Irrelevant: fabric fault, but we pretend a packed job by using a
		// single-group node list.
		makeTruth(Spec{Kind: SpineOutage, Spine: 1,
			Start: 10 * sim.Second, Duration: 60 * sim.Second}, top, []int{0, 1}),
	}
	events := []c4d.Event{
		// TP: blames the victim inside the window.
		{Time: 30 * sim.Second, Syndrome: c4d.CommSlow, Scope: c4d.ScopeNodeTx, Node: 8, Peer: -1},
		// TP: connection verdict with the victim as peer.
		{Time: 40 * sim.Second, Syndrome: c4d.CommSlow, Scope: c4d.ScopeConnection, Node: 0, Peer: 8},
		// FP: wrong node.
		{Time: 45 * sim.Second, Syndrome: c4d.CommSlow, Scope: c4d.ScopeNodeRx, Node: 1, Peer: -1},
		// FP: right node, but long after the window + grace.
		{Time: 10 * sim.Minute, Syndrome: c4d.CommSlow, Scope: c4d.ScopeNodeTx, Node: 8, Peer: -1},
	}
	sc := ScoreEvents(events, truths, nil)
	if sc.TP != 2 || sc.FP != 2 {
		t.Fatalf("TP/FP = %d/%d, want 2/2", sc.TP, sc.FP)
	}
	if sc.Relevant != 1 || sc.Detected != 1 {
		t.Fatalf("relevant/detected = %d/%d, want 1/1", sc.Relevant, sc.Detected)
	}
	if sc.Precision() != 0.5 || sc.Recall() != 1 {
		t.Fatalf("P/R = %.2f/%.2f, want 0.50/1.00", sc.Precision(), sc.Recall())
	}
}

func TestScoreEdgeCases(t *testing.T) {
	var empty Score
	if empty.Precision() != 1 || empty.Recall() != 1 || empty.RCAAccuracy() != 1 {
		t.Fatal("empty score should report perfect precision/recall/rca")
	}
	sum := Score{TP: 1, FP: 1, Events: 2}.Add(Score{TP: 2, Events: 2, Relevant: 3, Detected: 2})
	if sum.TP != 3 || sum.FP != 1 || sum.Events != 4 || sum.Relevant != 3 || sum.Detected != 2 {
		t.Fatalf("Add gave %+v", sum)
	}
}

func TestExpectedCauses(t *testing.T) {
	for _, k := range []Kind{LinkFlap, NICDegrade, SpineOutage, Straggler, PacketDrop} {
		if len(k.ExpectedCauses()) == 0 {
			t.Errorf("%v has no expected causes", k)
		}
		if k.String() == "unknown" {
			t.Errorf("kind %d has no label", int(k))
		}
	}
}

// TestMatchesIsTheDetectionRule pins one attribution rule for both
// scorers: a batch finding matches a fault exactly when its Detection
// does.
func TestMatchesIsTheDetectionRule(t *testing.T) {
	gt := GroundTruth{
		Spec:   Spec{Kind: LinkFlap, Start: 10 * sim.Second, Duration: 20 * sim.Second},
		Impact: []int{2, 5},
	}
	end := gt.Spec.End()
	const mid = 15 * sim.Second
	for _, tc := range []struct {
		name string
		ev   c4d.Event
		want bool
	}{
		{"node scope, impacted node", c4d.Event{Time: mid, Scope: c4d.ScopeNode, Node: 2, Peer: -1}, true},
		{"node scope, innocent node", c4d.Event{Time: mid, Scope: c4d.ScopeNode, Node: 3, Peer: -1}, false},
		{"node scope ignores a peer", c4d.Event{Time: mid, Scope: c4d.ScopeNodeTx, Node: 3, Peer: 5}, false},
		{"connection scope, impacted source", c4d.Event{Time: mid, Scope: c4d.ScopeConnection, Node: 5, Peer: 3}, true},
		{"connection scope, impacted peer", c4d.Event{Time: mid, Scope: c4d.ScopeConnection, Node: 3, Peer: 5}, true},
		{"connection scope, innocent endpoints", c4d.Event{Time: mid, Scope: c4d.ScopeConnection, Node: 3, Peer: 4}, false},
		{"connection scope, Peer -1", c4d.Event{Time: mid, Scope: c4d.ScopeConnection, Node: 3, Peer: -1}, false},
		{"at the fault's start", c4d.Event{Time: gt.Spec.Start, Scope: c4d.ScopeNode, Node: 2, Peer: -1}, true},
		{"before the fault's start", c4d.Event{Time: gt.Spec.Start - 1, Scope: c4d.ScopeNode, Node: 2, Peer: -1}, false},
		{"at the end of the grace", c4d.Event{Time: end + Grace, Scope: c4d.ScopeNode, Node: 2, Peer: -1}, true},
		{"past the grace", c4d.Event{Time: end + Grace + 1, Scope: c4d.ScopeNode, Node: 2, Peer: -1}, false},
	} {
		if got := gt.Matches(tc.ev); got != tc.want {
			t.Errorf("%s: Matches = %v, want %v", tc.name, got, tc.want)
		}
		if got := gt.matchesDetection(tc.ev.Detection()); got != tc.want {
			t.Errorf("%s: matchesDetection = %v, want %v", tc.name, got, tc.want)
		}
	}
	if (GroundTruth{Spec: gt.Spec}).Matches(c4d.Event{Time: mid, Scope: c4d.ScopeNode, Node: 2, Peer: -1}) {
		t.Error("a fault impacting no node matched a finding")
	}
}
