package topo

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestPaperTestbedShape(t *testing.T) {
	spec := PaperTestbed()
	top := MustNew(spec)
	if got := spec.TotalGPUs(); got != 128 {
		t.Fatalf("TotalGPUs = %d, want 128", got)
	}
	if got := spec.Groups(); got != 8 {
		t.Fatalf("Groups = %d, want 8", got)
	}
	wantLeaves := spec.Rails * Planes * spec.Groups()
	if len(top.Leaves) != wantLeaves {
		t.Fatalf("leaves = %d, want %d", len(top.Leaves), wantLeaves)
	}
	wantSpines := spec.Rails * spec.Spines
	if len(top.Spines) != wantSpines {
		t.Fatalf("spines = %d, want %d", len(top.Spines), wantSpines)
	}
	// Every leaf has one uplink per spine of its rail.
	for _, leaf := range top.Leaves {
		if len(leaf.Ups) != spec.Spines || len(leaf.Downs) != spec.Spines {
			t.Fatalf("leaf %s uplinks = %d/%d", leaf.Name(), len(leaf.Ups), len(leaf.Downs))
		}
		if len(leaf.Ports) != spec.NodesPerGroup {
			t.Fatalf("leaf %s ports = %d, want %d", leaf.Name(), len(leaf.Ports), spec.NodesPerGroup)
		}
	}
	if len(top.NVLinkTx) != spec.Nodes || len(top.NVLinkRx) != spec.Nodes {
		t.Fatal("missing NVLink links")
	}
}

func TestValidate(t *testing.T) {
	good := PaperTestbed()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []Spec{
		{},
		{Nodes: 1},
		{Nodes: 2, GPUsPerNode: 8, Rails: 1, NodesPerGroup: 2, Spines: 0, PortGbps: 200, NVLinkGbps: 300},
		{Nodes: 2, GPUsPerNode: 8, Rails: 1, NodesPerGroup: 2, Spines: 1, PortGbps: -1, NVLinkGbps: 300},
		{Nodes: 2, GPUsPerNode: 8, Rails: 1, NodesPerGroup: 2, Spines: 1, PortGbps: 200, NVLinkGbps: 0},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
	if _, err := New(Spec{}); err == nil {
		t.Error("New accepted an invalid spec")
	}
}

func TestPortWiring(t *testing.T) {
	top := MustNew(PaperTestbed())
	for n := 0; n < top.Spec.Nodes; n++ {
		for r := 0; r < top.Spec.Rails; r++ {
			for p := 0; p < Planes; p++ {
				port := top.PortAt(n, r, p)
				if port.Node != n || port.Rail != r || port.Plane != p {
					t.Fatalf("port identity mismatch at (%d,%d,%d)", n, r, p)
				}
				if port.Leaf != top.LeafAt(r, p, top.Group(n)) {
					t.Fatalf("port %s wired to wrong leaf %s", port.Name(), port.Leaf.Name())
				}
				if port.Up.Kind != LinkNodeUp || port.Down.Kind != LinkNodeDown {
					t.Fatalf("port %s link kinds wrong", port.Name())
				}
			}
		}
	}
}

func TestPathsBetweenCrossGroup(t *testing.T) {
	top := MustNew(PaperTestbed())
	// Nodes 0 and 2 are in different groups (2 nodes per group).
	paths := top.PathsBetween(0, 2, 3)
	want := Planes * Planes * top.Spec.Spines
	if len(paths) != want {
		t.Fatalf("paths = %d, want %d", len(paths), want)
	}
	seen := map[string]bool{}
	for _, p := range paths {
		if p.SameLeaf() {
			t.Fatalf("cross-group path claims same leaf: %v", p)
		}
		if p.SrcPort.Node != 0 || p.DstPort.Node != 2 {
			t.Fatalf("endpoint mismatch: %v", p)
		}
		if p.SrcPort.Rail != 3 || p.DstPort.Rail != 3 {
			t.Fatalf("rail mismatch: %v", p)
		}
		if !p.Up() {
			t.Fatalf("fresh path reports down: %v", p)
		}
		// src NVLink, port up, leaf up, spine down, port down, dst NVLink
		if len(p.Links) != 6 {
			t.Fatalf("link count = %d, want 6: %v", len(p.Links), p)
		}
		if seen[p.String()] {
			t.Fatalf("duplicate path %v", p)
		}
		seen[p.String()] = true
	}
}

func TestPathsBetweenSameGroup(t *testing.T) {
	top := MustNew(PaperTestbed())
	// Nodes 0 and 1 share a leaf group.
	paths := top.PathsBetween(0, 1, 0)
	want := Planes*Planes*top.Spec.Spines + Planes // spine routes + same-leaf per plane
	if len(paths) != want {
		t.Fatalf("paths = %d, want %d", len(paths), want)
	}
	sameLeaf := 0
	for _, p := range paths {
		if p.SameLeaf() {
			sameLeaf++
			if p.CrossPlane() {
				t.Fatalf("same-leaf path cannot cross planes: %v", p)
			}
			if len(p.Links) != 4 {
				t.Fatalf("same-leaf link count = %d, want 4", len(p.Links))
			}
		}
	}
	if sameLeaf != Planes {
		t.Fatalf("same-leaf paths = %d, want %d", sameLeaf, Planes)
	}
}

func TestPathsBetweenSelfAndPathFor(t *testing.T) {
	top := MustNew(PaperTestbed())
	if got := top.PathsBetween(3, 3, 0); got != nil {
		t.Fatalf("self paths = %v, want nil", got)
	}
	if _, err := top.PathFor(1, 1, 0, 0, 0, 0); err == nil {
		t.Fatal("PathFor to self should fail")
	}
	if _, err := top.PathFor(0, 2, 0, 0, -1, 0); err == nil {
		t.Fatal("same-leaf route between different groups should fail")
	}
	if _, err := top.PathFor(0, 2, 0, 0, 99, 0); err == nil {
		t.Fatal("out-of-range spine should fail")
	}
	p, err := top.PathFor(0, 1, 0, 1, -1, 1)
	if err != nil {
		t.Fatalf("PathFor same-leaf: %v", err)
	}
	if !p.SameLeaf() {
		t.Fatal("expected same-leaf path")
	}
	p, err = top.PathFor(0, 5, 2, 0, 4, 1)
	if err != nil {
		t.Fatalf("PathFor: %v", err)
	}
	if p.Spine.Index != 4 || !p.CrossPlane() {
		t.Fatalf("PathFor selection wrong: %v", p)
	}
}

func TestLinkFailurePropagatesToPath(t *testing.T) {
	top := MustNew(PaperTestbed())
	p, err := top.PathFor(0, 2, 0, 0, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	up := p.SrcPort.Leaf.Ups[3]
	up.SetUp(false)
	if p.Up() {
		t.Fatal("path should be down after its uplink failed")
	}
	up.SetUp(true)
	if !p.Up() {
		t.Fatal("path should recover")
	}
}

func TestIntraNodePath(t *testing.T) {
	top := MustNew(PaperTestbed())
	p := top.IntraNodePath(7)
	if len(p.Links) != 2 {
		t.Fatalf("intra-node links = %d, want 2", len(p.Links))
	}
	if p.Links[0].Kind != LinkNVLinkTx || p.Links[1].Kind != LinkNVLinkRx {
		t.Fatal("intra-node path must be NVLink only")
	}
}

// Property: for any valid small spec, every cross-group path starts and ends
// at the requested endpoints and uses only links of the expected kinds in
// the expected order.
func TestPathStructureProperty(t *testing.T) {
	f := func(nodesRaw, railsRaw, spinesRaw uint8) bool {
		nodes := int(nodesRaw%6) + 2 // 2..7
		rails := int(railsRaw%3) + 1 // 1..3
		spines := int(spinesRaw%4) + 1
		spec := Spec{
			Nodes: nodes, GPUsPerNode: 8, Rails: rails,
			NodesPerGroup: 1, Spines: spines, PortGbps: 200, NVLinkGbps: 362,
		}
		top, err := New(spec)
		if err != nil {
			return false
		}
		kindOrder := []LinkKind{LinkNVLinkTx, LinkNodeUp, LinkLeafUp, LinkSpineDown, LinkNodeDown, LinkNVLinkRx}
		for r := 0; r < rails; r++ {
			for _, p := range top.PathsBetween(0, nodes-1, r) {
				if len(p.Links) != len(kindOrder) {
					return false
				}
				for i, l := range p.Links {
					if l.Kind != kindOrder[i] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSpineLinks(t *testing.T) {
	top := MustNew(MultiJobTestbed(8))
	spec := top.Spec
	links := top.SpineLinks(0, 3)
	// Every leaf of rail 0 (both planes, all groups) contributes its up and
	// down link to spine 3.
	wantLeaves := Planes * spec.Groups()
	if len(links) != 2*wantLeaves {
		t.Fatalf("SpineLinks returned %d links, want %d", len(links), 2*wantLeaves)
	}
	sp := top.SpineAt(0, 3)
	seen := map[int]bool{}
	for _, l := range links {
		if l.Spine != sp {
			t.Fatalf("link %s does not touch %s", l.Name, sp.Name())
		}
		if l.Kind != LinkLeafUp && l.Kind != LinkSpineDown {
			t.Fatalf("link %s has kind %v", l.Name, l.Kind)
		}
		if seen[l.ID] {
			t.Fatalf("link %s returned twice", l.Name)
		}
		seen[l.ID] = true
	}
	// Other rails' spines are untouched.
	for _, l := range top.SpineLinks(1, 0) {
		if l.Spine.Rail != 1 {
			t.Fatalf("rail 1 spine links include rail %d", l.Spine.Rail)
		}
	}
}

// Link names join their endpoints' names, each formatted once, into
// exactly the "<from>-><to>" form a per-link Sprintf gives.
func TestLinkNamesJoinEndpointNames(t *testing.T) {
	for _, spec := range []Spec{PaperTestbed(), MultiJobTestbed(4)} {
		top := MustNew(spec)
		for _, l := range top.Links {
			var want string
			switch l.Kind {
			case LinkLeafUp:
				want = fmt.Sprintf("%s->%s", l.Leaf.Name(), l.Spine.Name())
			case LinkSpineDown:
				want = fmt.Sprintf("%s->%s", l.Spine.Name(), l.Leaf.Name())
			case LinkNodeUp:
				want = fmt.Sprintf("%s->%s", l.Port.Name(), l.Leaf.Name())
			case LinkNodeDown:
				want = fmt.Sprintf("%s->%s", l.Leaf.Name(), l.Port.Name())
			case LinkNVLinkTx:
				want = fmt.Sprintf("n%d/nvlink-tx", l.NodeID)
			case LinkNVLinkRx:
				want = fmt.Sprintf("n%d/nvlink-rx", l.NodeID)
			}
			if l.Name != want {
				t.Fatalf("link %d (%v) named %q, want %q", l.ID, l.Kind, l.Name, want)
			}
		}
	}
}
