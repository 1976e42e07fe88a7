package campaign

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"c4/internal/faults"
)

// testManifest parses a manifest literal, failing the test on error.
func testManifest(t *testing.T, src string) *Manifest {
	t.Helper()
	m, err := ReadManifest(strings.NewReader(src))
	if err != nil {
		t.Fatalf("ReadManifest: %v", err)
	}
	return m
}

// tinyManifest is the workhorse of these tests: a short-horizon sampled
// campaign small enough that sharded runs finish in test time.
const tinyManifest = `{
  "version": 1,
  "name": "tiny",
  "seed": 1,
  "entries": [{"family": "mixed", "trials": 5, "horizon_s": 90}]
}`

func TestManifestValidate(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"bad-version", `{"version": 2, "name": "x", "entries": [{"family": "mixed"}]}`, "version 2"},
		{"no-name", `{"version": 1, "entries": [{"family": "mixed"}]}`, "no name"},
		{"no-entries", `{"version": 1, "name": "x", "entries": []}`, "no entries"},
		{"unknown-family", `{"version": 1, "name": "x", "entries": [{"family": "nope"}]}`, "unknown family"},
		{"unknown-field", `{"version": 1, "name": "x", "trialz": 3, "entries": [{"family": "mixed"}]}`, "unknown field"},
		{"negative-trials", `{"version": 1, "name": "x", "entries": [{"family": "mixed", "trials": -1}]}`, "negative trial count"},
		{"fixed-grid-override", `{"version": 1, "name": "x", "entries": [{"family": "flap-sweep", "trials": 9}]}`, "fixed grid"},
		{"negative-horizon", `{"version": 1, "name": "x", "entries": [{"family": "mixed", "horizon_s": -2}]}`, "negative horizon"},
		{"empty-seed-range", `{"version": 1, "name": "x", "entries": [{"family": "mixed", "seeds": {"from": 1, "count": 0}}]}`, "seed range"},
		{"bad-placement", `{"version": 1, "name": "x", "entries": [{"family": "mixed", "knobs": {"placement": ["diagonal"]}}]}`, "unknown placement"},
		{"bad-spines", `{"version": 1, "name": "x", "entries": [{"family": "mixed", "knobs": {"spines": [0]}}]}`, "spines"},
		{"bad-job-n", `{"version": 1, "name": "x", "entries": [{"family": "mixed", "knobs": {"job_n": [-4]}}]}`, "job_n"},
	}
	for _, tc := range cases {
		_, err := ReadManifest(strings.NewReader(tc.src))
		if err == nil {
			t.Fatalf("%s: ReadManifest accepted invalid manifest", tc.name)
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestManifestHashNormalized checks the content hash sees the normalized
// document: formatting and key order are irrelevant, while any semantic
// difference changes the stamp.
func TestManifestHashNormalized(t *testing.T) {
	a := testManifest(t, tinyManifest)
	b := testManifest(t, `{"entries":[{"horizon_s":90,"trials":5,"family":"mixed"}],"seed":1,"name":"tiny","version":1}`)
	if a.Hash() != b.Hash() {
		t.Fatalf("reformatted manifest hashes differ: %s vs %s", a.Hash(), b.Hash())
	}
	// Defaults normalize: an explicit seed range equal to the default one
	// hashes the same as leaving it out.
	c := testManifest(t, `{"version":1,"name":"tiny","seed":1,"entries":[{"family":"mixed","trials":5,"horizon_s":90,"seeds":{"from":1,"count":1}}]}`)
	if a.Hash() != c.Hash() {
		t.Fatalf("default seed range changes the hash: %s vs %s", a.Hash(), c.Hash())
	}
	d := testManifest(t, strings.Replace(tinyManifest, `"trials": 5`, `"trials": 6`, 1))
	if a.Hash() == d.Hash() {
		t.Fatalf("semantically different manifests share hash %s", a.Hash())
	}
}

// TestExpand pins the expansion layout: entries in order, seeds
// ascending, knob grid cartesian in listed order, trial seeds identical
// to the in-process campaign derivation.
func TestExpand(t *testing.T) {
	m := testManifest(t, `{
	  "version": 1, "name": "grid", "seed": 7,
	  "entries": [{
	    "family": "mixed", "trials": 2, "horizon_s": 60,
	    "seeds": {"from": 7, "count": 2},
	    "knobs": {"placement": ["spread", "packed"], "spines": [8, 4]}
	  }]
	}`)
	specs, err := m.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	// 2 seeds × (2 placements × 2 spines) × 2 trials.
	if len(specs) != 16 {
		t.Fatalf("Expand: %d trials, want 16", len(specs))
	}
	for i, ts := range specs {
		if ts.Index != i {
			t.Fatalf("spec %d has index %d", i, ts.Index)
		}
	}
	if specs[0].Seed != 7 || specs[15].Seed != 8 {
		t.Fatalf("seed order: first %d, last %d, want 7..8", specs[0].Seed, specs[15].Seed)
	}
	if specs[0].Knobs != "placement=spread,spines=8" {
		t.Fatalf("first combo label %q", specs[0].Knobs)
	}
	if specs[0].Trial.Placement != faults.Spread || specs[0].Trial.Spines != 8 {
		t.Fatalf("knob overrides not applied: %+v", specs[0].Trial)
	}
	// Trial seed must match what faults.Campaign.Run derives for trial i.
	if want := faults.TrialSeed(7, 0); specs[0].TrialSeed != want {
		t.Fatalf("trial seed %d, want %d", specs[0].TrialSeed, want)
	}
	if want := faults.TrialSeed(7, 1); specs[1].TrialSeed != want {
		t.Fatalf("trial seed %d, want %d", specs[1].TrialSeed, want)
	}

	again, err := m.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	for i := range specs {
		if fmt.Sprintf("%+v", specs[i]) != fmt.Sprintf("%+v", again[i]) {
			t.Fatalf("expansion not deterministic at trial %d", i)
		}
	}
}

// TestExpandGoBuiltManifest checks a manifest built in Go — never passed
// through ReadManifest, so its seed ranges are unset — expands to exactly
// the trials of the same document read from JSON.
func TestExpandGoBuiltManifest(t *testing.T) {
	built := &Manifest{Version: Version, Name: "tiny",
		Entries: []Entry{{Family: "mixed", Trials: 5, HorizonS: 90}}}
	got, err := built.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	want, err := testManifest(t, tinyManifest).Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
		t.Fatalf("Go-built manifest expands to\n%+v\nwant\n%+v", got, want)
	}
	if built.Hash() != testManifest(t, tinyManifest).Hash() {
		t.Fatal("Expand did not normalize the Go-built manifest")
	}
}

// TestExpandInvalidManifest checks Expand reports a manifest Validate
// would reject instead of panicking on it.
func TestExpandInvalidManifest(t *testing.T) {
	for name, m := range map[string]*Manifest{
		"no-version":     {Name: "x", Entries: []Entry{{Family: "mixed"}}},
		"unknown-family": {Version: Version, Name: "x", Entries: []Entry{{Family: "nope"}}},
		"empty-seeds":    {Version: Version, Name: "x", Entries: []Entry{{Family: "mixed", Seeds: &SeedRange{From: 1}}}},
	} {
		if specs, err := m.Expand(); err == nil {
			t.Errorf("%s: Expand returned %d trials and no error", name, len(specs))
		}
	}
}

// runShard is a test helper executing one shard without checkpointing.
func runShard(t *testing.T, m *Manifest, shard, of int) *Partial {
	t.Helper()
	sr := &ShardRun{Manifest: m, Shard: shard, Of: of}
	p, err := sr.Run()
	if err != nil {
		t.Fatalf("shard %d/%d: %v", shard, of, err)
	}
	return p
}

func mergedBytes(t *testing.T, m *Merged) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// TestShardMergeDeterminism is the subsystem's headline invariant: a
// 4-way sharded run merges to bytes identical to the serial single-shard
// run of the same manifest.
func TestShardMergeDeterminism(t *testing.T) {
	m := testManifest(t, tinyManifest)

	serial, err := Merge([]*Partial{runShard(t, m, 0, 1)})
	if err != nil {
		t.Fatalf("serial merge: %v", err)
	}
	var sharded []*Partial
	for i := 0; i < 4; i++ {
		sharded = append(sharded, runShard(t, m, i, 4))
	}
	// Merge order of the partials must not matter either.
	shuffled := []*Partial{sharded[2], sharded[0], sharded[3], sharded[1]}
	merged, err := MergeHash(m, shuffled)
	if err != nil {
		t.Fatalf("sharded merge: %v", err)
	}

	sb, mb := mergedBytes(t, serial), mergedBytes(t, merged)
	if !bytes.Equal(sb, mb) {
		t.Fatalf("serial and 4-shard merges differ:\n--- serial ---\n%s\n--- sharded ---\n%s", sb, mb)
	}
	if err := merged.Check(); err != nil {
		t.Fatalf("merged.Check: %v", err)
	}
	if merged.ManifestHash != m.Hash() {
		t.Fatalf("merged stamped %s, manifest is %s", merged.ManifestHash, m.Hash())
	}
}

// TestMergeRefusals locks in the reducer's refusal conditions: gaps,
// duplicates, and mixed manifests must fail loudly, never silently
// produce a partial report.
func TestMergeRefusals(t *testing.T) {
	m := testManifest(t, tinyManifest)
	p0, p1 := runShard(t, m, 0, 2), runShard(t, m, 1, 2)

	if _, err := Merge([]*Partial{p0}); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("merge with a missing shard: err = %v, want gap refusal", err)
	}
	if _, err := Merge([]*Partial{p0, p0, p1}); err == nil || !strings.Contains(err.Error(), "more than one partial") {
		t.Fatalf("merge with duplicate shard: err = %v, want duplicate refusal", err)
	}
	other := testManifest(t, strings.Replace(tinyManifest, `"seed": 1`, `"seed": 2`, 1))
	q0 := runShard(t, other, 0, 2)
	if _, err := Merge([]*Partial{p0, q0}); err == nil || !strings.Contains(err.Error(), "hash mismatch") {
		t.Fatalf("merge across manifests: err = %v, want hash refusal", err)
	}
	if _, err := MergeHash(other, []*Partial{p0, p1}); err == nil || !strings.Contains(err.Error(), "not") {
		t.Fatalf("MergeHash against wrong manifest: err = %v, want refusal", err)
	}
	if _, err := Merge(nil); err == nil {
		t.Fatal("merge of nothing succeeded")
	}
}

// TestCheckpointResume is the kill-and-resume path: a shard interrupted
// mid-run (simulated by truncating its checkpoint to a strict prefix)
// re-executes only the missing trials and still produces the exact bytes
// of an uninterrupted run.
func TestCheckpointResume(t *testing.T) {
	m := testManifest(t, tinyManifest)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "shard0.ckpt")

	var log bytes.Buffer
	sr := &ShardRun{Manifest: m, Shard: 0, Of: 2, Checkpoint: ckpt, Log: &log}
	clean, err := sr.Run()
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}

	// Truncate the checkpoint to header + first record: the state after a
	// kill -9 that landed between trials.
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatalf("read checkpoint: %v", err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 3 {
		t.Fatalf("checkpoint has %d lines, want header + >=2 records", len(lines))
	}
	if err := os.WriteFile(ckpt, []byte(lines[0]+lines[1]), 0o644); err != nil {
		t.Fatalf("truncate checkpoint: %v", err)
	}

	log.Reset()
	resumed, err := (&ShardRun{Manifest: m, Shard: 0, Of: 2, Checkpoint: ckpt, Log: &log}).Run()
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !strings.Contains(log.String(), "1 from checkpoint") {
		t.Fatalf("resume log %q does not report checkpointed progress", log.String())
	}
	if !bytes.Equal(partialBytes(t, clean), partialBytes(t, resumed)) {
		t.Fatal("resumed partial differs from clean run")
	}

	// A torn tail (kill mid-write) is tolerated: that trial re-runs.
	if err := os.WriteFile(ckpt, append(data, []byte(`{"index": 4, "family": "mix`)...), 0o644); err != nil {
		t.Fatalf("tear checkpoint: %v", err)
	}
	torn, err := (&ShardRun{Manifest: m, Shard: 0, Of: 2, Checkpoint: ckpt}).Run()
	if err != nil {
		t.Fatalf("run over torn checkpoint: %v", err)
	}
	if !bytes.Equal(partialBytes(t, clean), partialBytes(t, torn)) {
		t.Fatal("torn-tail partial differs from clean run")
	}
}

// TestCheckpointIdentity checks a checkpoint is refused when it belongs
// to a different manifest or shard — resuming someone else's progress
// would corrupt the experiment silently.
func TestCheckpointIdentity(t *testing.T) {
	m := testManifest(t, tinyManifest)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "shard.ckpt")
	if _, err := (&ShardRun{Manifest: m, Shard: 0, Of: 2, Checkpoint: ckpt}).Run(); err != nil {
		t.Fatalf("seed run: %v", err)
	}

	if _, err := (&ShardRun{Manifest: m, Shard: 1, Of: 2, Checkpoint: ckpt}).Run(); err == nil || !strings.Contains(err.Error(), "belongs to shard") {
		t.Fatalf("wrong-shard resume: err = %v, want shard refusal", err)
	}
	other := testManifest(t, strings.Replace(tinyManifest, `"trials": 5`, `"trials": 4`, 1))
	if _, err := (&ShardRun{Manifest: other, Shard: 0, Of: 2, Checkpoint: ckpt}).Run(); err == nil || !strings.Contains(err.Error(), "manifest") {
		t.Fatalf("wrong-manifest resume: err = %v, want manifest refusal", err)
	}
	if _, err := (&ShardRun{Manifest: m, Shard: 2, Of: 2}).Run(); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
}

func partialBytes(t *testing.T, p *Partial) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// TestPartialRoundTrip pins the artifact read/write cycle and its
// version gate.
func TestPartialRoundTrip(t *testing.T) {
	m := testManifest(t, tinyManifest)
	p := runShard(t, m, 1, 2)
	b := partialBytes(t, p)
	rt, err := ReadPartial(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("ReadPartial: %v", err)
	}
	if !bytes.Equal(b, partialBytes(t, rt)) {
		t.Fatal("partial does not round-trip")
	}
	if _, err := ReadPartial(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Fatal("future partial version accepted")
	}

	merged, err := Merge([]*Partial{runShard(t, m, 0, 2), p})
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	mb := mergedBytes(t, merged)
	mrt, err := ReadMerged(bytes.NewReader(mb))
	if err != nil {
		t.Fatalf("ReadMerged: %v", err)
	}
	if !bytes.Equal(mb, mergedBytes(t, mrt)) {
		t.Fatal("merged report does not round-trip")
	}
	if _, err := ReadMerged(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Fatal("future merged version accepted")
	}
	if s := merged.String(); !strings.Contains(s, "precision") || !strings.Contains(s, "aggregate:") {
		t.Fatalf("merged String() missing summary lines:\n%s", s)
	}
}
