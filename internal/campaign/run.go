package campaign

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"c4/internal/faults"
	"c4/internal/scenario"
)

// Record is one completed trial: the attribution fields from the
// expansion plus the two-arm measurement.
type Record struct {
	Index  int                `json:"index"`
	Family string             `json:"family"`
	Seed   int64              `json:"seed"`
	Knobs  string             `json:"knobs,omitempty"`
	Result faults.TrialResult `json:"result"`
}

// record builds the Record for a completed TrialSpec.
func record(ts TrialSpec, res faults.TrialResult) Record {
	return Record{Index: ts.Index, Family: ts.Family, Seed: ts.Seed, Knobs: ts.Knobs, Result: res}
}

// Partial is one shard's result artifact. The manifest hash stamps which
// experiment it belongs to; Trials is the full expanded count so the
// reducer can prove completeness without re-expanding.
type Partial struct {
	Version      int      `json:"version"`
	Name         string   `json:"name"`
	ManifestHash string   `json:"manifest_hash"`
	Seed         int64    `json:"seed"`
	Trials       int      `json:"trials"`
	Shard        int      `json:"shard"`
	Of           int      `json:"of"`
	Records      []Record `json:"records"`
}

// WriteJSON emits the canonical (index-sorted, indented) form.
func (p *Partial) WriteJSON(w io.Writer) error {
	sort.Slice(p.Records, func(i, j int) bool { return p.Records[i].Index < p.Records[j].Index })
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// ReadPartial parses a shard artifact.
func ReadPartial(r io.Reader) (*Partial, error) {
	var p Partial
	if err := decodeDocument(json.NewDecoder(r), &p); err != nil {
		return nil, fmt.Errorf("campaign: bad partial: %w", err)
	}
	if p.Version != Version {
		return nil, fmt.Errorf("campaign: partial version %d, this build reads version %d", p.Version, Version)
	}
	return &p, nil
}

// LoadPartial reads a shard artifact file.
func LoadPartial(path string) (*Partial, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	defer f.Close()
	p, err := ReadPartial(f)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return p, nil
}

// ShardRun executes one shard of a manifest: the trials whose index is
// congruent to Shard mod Of, on a bounded worker pool, with optional
// checkpoint-based resumption.
type ShardRun struct {
	Manifest *Manifest
	// Shard/Of are the stride coordinates; Of >= 1, 0 <= Shard < Of.
	Shard, Of int
	// Workers bounds the trial pool (0 = GOMAXPROCS). Concurrency cannot
	// affect results: every trial builds isolated engines from its own
	// derived seed.
	Workers int
	// Checkpoint is a per-shard JSONL progress file ("" disables). Each
	// completed trial appends one line as it finishes, so an interrupted
	// run re-executes only the missing trials. The file must not be
	// shared between shards.
	Checkpoint string
	// Log receives one-line progress notes (nil discards).
	Log io.Writer
}

func (sr *ShardRun) logf(format string, args ...any) {
	if sr.Log != nil {
		fmt.Fprintf(sr.Log, format+"\n", args...)
	}
}

// Run expands the manifest, restores checkpointed progress, executes the
// missing trials of this shard and returns the completed Partial. The
// returned artifact is independent of worker count, checkpoint state and
// interruption history: a resumed run emits the same bytes a clean run
// would.
func (sr *ShardRun) Run() (*Partial, error) {
	if sr.Of < 1 || sr.Shard < 0 || sr.Shard >= sr.Of {
		return nil, fmt.Errorf("campaign: shard %d/%d out of range", sr.Shard, sr.Of)
	}
	specs, err := sr.Manifest.Expand()
	if err != nil {
		return nil, err
	}
	return sr.run(specs)
}

// run executes this shard's part of the manifest's expansion.
func (sr *ShardRun) run(specs []TrialSpec) (*Partial, error) {
	hash := sr.Manifest.Hash()
	var mine []TrialSpec
	for _, ts := range specs {
		if ts.Index%sr.Of == sr.Shard {
			mine = append(mine, ts)
		}
	}

	done := map[int]Record{}
	var err error
	if sr.Checkpoint != "" {
		done, err = loadCheckpoint(sr.Checkpoint, hash, sr.Shard, sr.Of)
		if err != nil {
			return nil, err
		}
	}
	var todo []TrialSpec
	for _, ts := range mine {
		if _, ok := done[ts.Index]; !ok {
			todo = append(todo, ts)
		}
	}
	sr.logf("campaign %s shard %d/%d: %d/%d trials owned, %d from checkpoint, %d to run",
		sr.Manifest.Name, sr.Shard, sr.Of, len(mine), len(specs), len(done), len(todo))

	var ckpt *checkpointWriter
	if sr.Checkpoint != "" && len(todo) > 0 {
		ckpt, err = openCheckpoint(sr.Checkpoint, hash, sr.Shard, sr.Of, len(done) > 0)
		if err != nil {
			return nil, err
		}
		defer ckpt.Close()
	}

	recs := make([]Record, len(todo))
	// A trial that panics does so on a pool goroutine, where nothing
	// recovers it; capture each trial's panic and report the first, in
	// index order, as the run's error. Trials that finished stay in the
	// checkpoint.
	panics := make([]any, len(todo))
	scenario.ForEach(len(todo), sr.Workers, func(i int) {
		defer func() { panics[i] = recover() }()
		recs[i] = record(todo[i], todo[i].Run())
		if ckpt != nil {
			// Appended on completion, so checkpoint line order is
			// scheduling-dependent; the checkpoint is a set, and the
			// Partial below re-sorts by index.
			ckpt.Append(recs[i])
		}
	})
	for i, p := range panics {
		if p != nil {
			ts := todo[i]
			return nil, fmt.Errorf("campaign: trial %d (family %s, seed %d, knobs %q, trial %s) panicked: %v",
				ts.Index, ts.Family, ts.Seed, ts.Knobs, ts.Trial.ID, p)
		}
	}
	if ckpt != nil {
		if err := ckpt.Close(); err != nil {
			return nil, err
		}
	}

	p := &Partial{
		Version: Version, Name: sr.Manifest.Name, ManifestHash: hash,
		Seed: *sr.Manifest.Seed, Trials: len(specs), Shard: sr.Shard, Of: sr.Of,
	}
	for _, r := range done {
		p.Records = append(p.Records, r)
	}
	p.Records = append(p.Records, recs...)
	sort.Slice(p.Records, func(i, j int) bool { return p.Records[i].Index < p.Records[j].Index })
	return p, nil
}

// checkpointHeader is the first line of a checkpoint file: the identity
// of the run the progress belongs to.
type checkpointHeader struct {
	Version      int    `json:"version"`
	ManifestHash string `json:"manifest_hash"`
	Shard        int    `json:"shard"`
	Of           int    `json:"of"`
}

// loadCheckpoint restores completed records from a checkpoint file,
// refusing one written for a different manifest or shard. A missing file
// is an empty checkpoint. A torn final line (the process died mid-write)
// is tolerated: parsing stops there and the trial re-runs.
func loadCheckpoint(path, hash string, shard, of int) (map[int]Record, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return map[int]Record{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("campaign: checkpoint: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		return map[int]Record{}, nil // empty file: no progress
	}
	var hdr checkpointHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("campaign: checkpoint %s: bad header: %w", path, err)
	}
	if hdr.Version != Version {
		return nil, fmt.Errorf("campaign: checkpoint %s: version %d, this build reads version %d", path, hdr.Version, Version)
	}
	if hdr.ManifestHash != hash {
		return nil, fmt.Errorf("campaign: checkpoint %s was written for manifest %s, not %s; delete it to start over",
			path, hdr.ManifestHash, hash)
	}
	if hdr.Shard != shard || hdr.Of != of {
		return nil, fmt.Errorf("campaign: checkpoint %s belongs to shard %d/%d, not %d/%d",
			path, hdr.Shard, hdr.Of, shard, of)
	}
	done := map[int]Record{}
	for sc.Scan() {
		var r Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			break // torn tail from an interrupted write; re-run from here
		}
		done[r.Index] = r
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("campaign: checkpoint %s: %w", path, err)
	}
	return done, nil
}

// checkpointWriter appends completed-trial lines, one synced line per
// record, safe for the concurrent trial pool.
type checkpointWriter struct {
	mu  sync.Mutex
	f   *os.File
	err error
}

// openCheckpoint opens the progress file for appending, writing the
// identity header first when the file is fresh.
func openCheckpoint(path, hash string, shard, of int, resuming bool) (*checkpointWriter, error) {
	flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: checkpoint: %w", err)
	}
	w := &checkpointWriter{f: f}
	if !resuming {
		st, err := f.Stat()
		if err == nil && st.Size() == 0 {
			hdr, _ := json.Marshal(checkpointHeader{Version: Version, ManifestHash: hash, Shard: shard, Of: of})
			if _, err := f.Write(append(hdr, '\n')); err != nil {
				f.Close()
				return nil, fmt.Errorf("campaign: checkpoint: %w", err)
			}
		}
	}
	return w, nil
}

// Append records one completed trial. Errors are sticky and surfaced by
// Close: a failing checkpoint must not kill the in-flight trial pool,
// but it must fail the run before the partial is trusted.
func (w *checkpointWriter) Append(r Record) {
	line, err := json.Marshal(r)
	if err != nil {
		err = fmt.Errorf("campaign: checkpoint: %w", err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	if err != nil {
		w.err = err
		return
	}
	if _, err := w.f.Write(append(line, '\n')); err != nil {
		w.err = fmt.Errorf("campaign: checkpoint: %w", err)
		return
	}
	// One fsync per trial: a trial is minutes of simulated work, the
	// sync is what makes kill -9 lose at most the in-flight trials.
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("campaign: checkpoint: %w", err)
	}
}

// Close flushes and reports the sticky error. Safe to call twice (the
// deferred close after an explicit one).
func (w *checkpointWriter) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f != nil {
		if err := w.f.Close(); err != nil && w.err == nil {
			w.err = fmt.Errorf("campaign: checkpoint: %w", err)
		}
		w.f = nil
	}
	return w.err
}
