package campaign

import (
	"bytes"
	"encoding/json"
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
		{"concatenated", tinyManifest + tinyManifest, "after the JSON document"},
		{"trailing-junk", tinyManifest + " trailing junk", "after the JSON document"},
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

// FuzzReadManifest checks the manifest reader on arbitrary bytes:
//   - it never panics;
//   - it accepts only input that is exactly one JSON document, with
//     nothing but whitespace around it (json.Valid is the reference);
//   - normalization is idempotent: an accepted manifest re-reads from its
//     own json.Marshal with an equal Hash.
//
// It never calls Expand: trial and seed counts are unbounded on purpose.
// Plain `go test` replays the committed corpus (testdata/fuzz/); `make
// fuzz-smoke` explores further.
func FuzzReadManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadManifest(bytes.NewReader(data))
		if err != nil {
			return
		}
		if !json.Valid(data) {
			t.Fatalf("accepted %q, which is not exactly one JSON document", data)
		}
		norm, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("marshal accepted manifest: %v", err)
		}
		again, err := ReadManifest(bytes.NewReader(norm))
		if err != nil {
			t.Fatalf("normalized manifest %s does not re-read: %v", norm, err)
		}
		if again.Hash() != m.Hash() {
			t.Fatalf("normalized manifest %s re-reads with hash %s, want %s", norm, again.Hash(), m.Hash())
		}
	})
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
// ascending, knob grid cartesian in listed order, trial seeds from
// faults.TrialSeed. (Mixed draws faults on spines and uplinks 0-7, so its
// spine knob must stay at 8 or above.)
func TestExpand(t *testing.T) {
	m := testManifest(t, `{
	  "version": 1, "name": "grid", "seed": 7,
	  "entries": [{
	    "family": "mixed", "trials": 2, "horizon_s": 60,
	    "seeds": {"from": 7, "count": 2},
	    "knobs": {"placement": ["spread", "packed"], "spines": [8, 16]}
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
	// Trial seed i of an instance is faults.TrialSeed(seed, i).
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

// TestSerialMatchesParallel is the trial pool's replay contract: one
// shard run on one worker and on four must emit byte-identical partials
// (run with -race to also prove the pool shares no state).
func TestSerialMatchesParallel(t *testing.T) {
	m := testManifest(t, `{"version": 1, "name": "pool", "seed": 7,
	  "entries": [{"family": "mixed", "trials": 4, "horizon_s": 60, "knobs": {"job_n": [8]}}]}`)
	serial, err := (&ShardRun{Manifest: m, Of: 1, Workers: 1}).Run()
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	parallel, err := (&ShardRun{Manifest: m, Of: 1, Workers: 4}).Run()
	if err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	if s, p := partialBytes(t, serial), partialBytes(t, parallel); !bytes.Equal(s, p) {
		t.Fatalf("parallel shard diverged from serial:\nserial:\n%s\nparallel:\n%s", s, p)
	}
	for _, r := range serial.Records {
		if r.Result.Events == 0 {
			t.Fatalf("trial %d (%s) fired no events", r.Index, r.Result.ID)
		}
	}
}

// TestShardRunReportsTrialPanic checks a trial that panics on the pool
// fails the run with an error naming the trial, instead of killing the
// process, and that the trials which finished stay in the checkpoint.
func TestShardRunReportsTrialPanic(t *testing.T) {
	// Expansion refuses a spec its trial's fabric cannot hold, so plant
	// one after it: outage-two-spines (trial 3) arms an outage on a spine
	// that does not exist, and only running the trial fails.
	m := testManifest(t, `{"version": 1, "name": "outages", "entries": [{"family": "outage-sweep", "horizon_s": 30}]}`)
	specs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	specs[3].Trial.Specs[1].Spine = 99
	for _, workers := range []int{1, 4} {
		ckpt := filepath.Join(t.TempDir(), "shard.ckpt")
		p, err := (&ShardRun{Manifest: m, Of: 1, Workers: workers, Checkpoint: ckpt}).run(specs)
		if err == nil {
			t.Fatalf("workers %d: run with a panicking trial returned %d records and no error", workers, len(p.Records))
		}
		for _, want := range []string{"trial 3 ", "family outage-sweep", "seed 1", `knobs ""`,
			"trial outage-two-spines", "spine 99 outside"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("workers %d: error %q does not mention %q", workers, err, want)
			}
		}
		done, err := loadCheckpoint(ckpt, m.Hash(), 0, 1)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if _, ok := done[3]; ok || len(done) != 5 {
			t.Fatalf("workers %d: checkpoint holds trials %v, want every trial but 3", workers, done)
		}
	}
}

// TestExpandRefusesSpecsOffTheFabric: a knob that shrinks a trial's
// fabric below its fault specs fails expansion, naming the entry, the
// trial and the spec, so `c4 campaign expand` and `run` both fail before
// any trial runs.
func TestExpandRefusesSpecsOffTheFabric(t *testing.T) {
	m := testManifest(t, `{"version": 1, "name": "two-spines",
	  "entries": [{"family": "outage-sweep", "horizon_s": 30, "knobs": {"spines": [2]}}]}`)
	ckpt := filepath.Join(t.TempDir(), "shard.ckpt")
	_, expandErr := m.Expand()
	_, runErr := (&ShardRun{Manifest: m, Of: 1, Checkpoint: ckpt}).Run()
	for _, err := range []error{expandErr, runErr} {
		if err == nil {
			t.Fatal("a manifest arming spine 3 of 2 expanded")
		}
		for _, want := range []string{"entry 0 (outage-sweep)", "trial 3 (outage-two-spines", `knobs "spines=2"`,
			"spine-outage r0/spine3", "spine 3 outside [0,2)"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not mention %q", err, want)
			}
		}
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Fatalf("the refused run left a checkpoint (%v): a trial ran", err)
	}
}

// TestManifestSeedZero: an explicit seed 0 stays 0 through normalization,
// expansion and the merged report; an absent seed defaults to 1; and a
// non-zero seed hashes as it always has.
func TestManifestSeedZero(t *testing.T) {
	one := testManifest(t, tinyManifest)
	absent := testManifest(t, strings.Replace(tinyManifest, `"seed": 1,`, "", 1))
	seven := testManifest(t, strings.Replace(tinyManifest, `"seed": 1`, `"seed": 7`, 1))
	for _, c := range []struct {
		m    *Manifest
		seed int64
		hash string
	}{
		{one, 1, "sha256:b5b7f996209f1b8e142d2e3cdf33bd5badd167340430d88d8536f97daf5e9e9b"},
		{absent, 1, "sha256:b5b7f996209f1b8e142d2e3cdf33bd5badd167340430d88d8536f97daf5e9e9b"},
		{seven, 7, "sha256:40cc244f919f711701c2ae4e66e66bcee291768b5b828c63ab4c1430953b35b3"},
	} {
		if *c.m.Seed != c.seed || c.m.Hash() != c.hash {
			t.Errorf("manifest seed %d hash %s, want seed %d hash %s", *c.m.Seed, c.m.Hash(), c.seed, c.hash)
		}
	}

	zero := testManifest(t, `{"version": 1, "name": "zero", "seed": 0,
	  "entries": [{"family": "mixed", "trials": 1, "horizon_s": 30}]}`)
	if *zero.Seed != 0 || zero.Entries[0].Seeds.From != 0 {
		t.Fatalf("seed 0 normalized to seed %d, seed range %+v", *zero.Seed, *zero.Entries[0].Seeds)
	}
	enc, err := json.Marshal(zero)
	if err != nil {
		t.Fatal(err)
	}
	if again := testManifest(t, string(enc)); *again.Seed != 0 || again.Hash() != zero.Hash() {
		t.Fatalf("seed 0 does not survive a round trip: %s", enc)
	}
	merged, err := Merge([]*Partial{runShard(t, zero, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Seed != 0 || merged.Records[0].Seed != 0 {
		t.Fatalf("merged report seed %d, record seed %d, want both 0", merged.Seed, merged.Records[0].Seed)
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

// TestCheckRederivesSummary: Check recomputes the summary from the
// records and the seed, so an edit to either side of a merged report
// fails it even when every number stays finite and every interval stays
// ordered. An untampered report passes after a JSON round trip.
func TestCheckRederivesSummary(t *testing.T) {
	m := testManifest(t, tinyManifest)
	merged, err := Merge([]*Partial{runShard(t, m, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	raw := mergedBytes(t, merged)
	read := func() *Merged {
		r, err := ReadMerged(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if err := read().Check(); err != nil {
		t.Fatalf("untampered report: %v", err)
	}
	first := func(r *Merged, ok func(faults.TrialResult) bool) *faults.TrialResult {
		for i := range r.Records {
			if ok(r.Records[i].Result) {
				return &r.Records[i].Result
			}
		}
		t.Fatal("no record to tamper with")
		return nil
	}
	tampers := map[string]func(*Merged){
		"record 0 tp, base goodput and aggregate": func(r *Merged) {
			r.Records[0].Result.Score.TP = 0
			r.Records[0].Result.BaseGoodput = 1e9
			r.Summary.Aggregate = map[string]float64{}
		},
		"empty aggregate": func(r *Merged) { r.Summary.Aggregate = map[string]float64{} },
		"true positives": func(r *Merged) {
			first(r, func(tr faults.TrialResult) bool { return tr.Score.TP > 0 }).Score.TP = 0
		},
		"base goodput": func(r *Merged) {
			first(r, func(tr faults.TrialResult) bool { return tr.Score.Relevant > 0 }).BaseGoodput *= 2
		},
		"summary mean": func(r *Merged) { r.Summary.Recall.Mean /= 2 },
	}
	for name, tamper := range tampers {
		r := read()
		tamper(r)
		if err := r.Check(); err == nil {
			t.Errorf("%s: tampered report passed Check", name)
		}
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
	if _, err := ReadPartial(bytes.NewReader(append(b, "not json at all"...))); err == nil ||
		!strings.Contains(err.Error(), "after the JSON document") {
		t.Fatalf("partial with trailing data: err = %v, want trailing-data refusal", err)
	}
	if _, err := ReadPartial(bytes.NewReader(append(b, " \n\t\r\n"...))); err != nil {
		t.Fatalf("partial with trailing whitespace: %v", err)
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
	if _, err := ReadMerged(bytes.NewReader(append(mb, mb...))); err == nil ||
		!strings.Contains(err.Error(), "after the JSON document") {
		t.Fatalf("merged report with a second object: err = %v, want trailing-data refusal", err)
	}
	if s := merged.String(); !strings.Contains(s, "precision") || !strings.Contains(s, "aggregate:") {
		t.Fatalf("merged String() missing summary lines:\n%s", s)
	}
}
