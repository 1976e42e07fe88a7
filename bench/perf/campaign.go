package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"time"

	"c4/internal/campaign"
)

// campaignBench runs one manifest-driven campaign as serial shards, the
// way c4campaign splits a campaign across processes, and merges the
// partials once every shard of a pass is done.
type campaignBench struct {
	manifest *campaign.Manifest
	shards   int
	owned    []int // trials each shard owns
	// partials and merged are the first pass's canonical bytes; later
	// passes must repeat them.
	partials [][]byte
	merged   []byte
	events   uint64 // simulation events across the first pass's trials
}

func newCampaignBench(_ context.Context, c config) (bench, error) {
	m, specs, err := expandManifest(c.seed, c.size.trials)
	if err != nil {
		return nil, err
	}
	b := &campaignBench{
		manifest: m, shards: c.size.shards,
		owned: make([]int, c.size.shards), partials: make([][]byte, c.size.shards),
	}
	for _, ts := range specs {
		b.owned[ts.Index%b.shards]++
	}
	// The warm-up trial is the first of the campaign at warmSeed: a trial's
	// cost varies fourfold with its seed, and set-up time should not.
	_, warm, err := expandManifest(warmSeed, 1)
	if err != nil {
		return nil, err
	}
	warm[0].Run()
	return b, nil
}

// expandManifest builds the campaign's manifest through ReadManifest, which
// validates and normalizes the document the way a manifest file on disk
// is, and expands it into its trials.
func expandManifest(seed int64, trials int) (*campaign.Manifest, []campaign.TrialSpec, error) {
	doc := fmt.Sprintf(`{"version": 1, "name": "perf-campaign", "seed": %d,
		"entries": [{"family": "mixed", "trials": %d, "horizon_s": 90}]}`, seed, trials)
	m, err := campaign.ReadManifest(strings.NewReader(doc))
	if err != nil {
		return nil, nil, err
	}
	specs, err := m.Expand()
	return m, specs, err
}

// run executes shards 0..n-1 and merges them, pass after pass, until the
// deadline has passed and at least one full pass is done. A pass the
// deadline interrupts is not merged.
func (b *campaignBench) run(_ context.Context, rec *recorder, deadline time.Time) {
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		root := rec.begin(0, "bench", fmt.Sprintf("campaign pass %d", pass))
		partials := make([]*campaign.Partial, 0, b.shards)
		for shard := range b.shards {
			if pass > 0 && !time.Now().Before(deadline) {
				break
			}
			if p := b.runShard(rec, root, shard); p != nil {
				partials = append(partials, p)
			}
			rec.tick()
		}
		if len(partials) == b.shards {
			b.merge(rec, root, partials)
		}
		rec.end(root)
	}
}

func (b *campaignBench) runShard(rec *recorder, root, shard int) *campaign.Partial {
	n := b.owned[shard]
	rec.attempt(n)
	id := rec.begin(root, "campaign", "shard run")
	m := startMeter()
	p, err := (&campaign.ShardRun{Manifest: b.manifest, Shard: shard, Of: b.shards, Workers: 1}).Run()
	u := m.stop(float64(n))
	rec.end(id)
	if err != nil {
		rec.fail(n, "shard %d/%d: %v", shard, b.shards, err)
		return nil
	}
	if len(p.Records) != n {
		rec.fail(n, "shard %d/%d: %d records, want %d", shard, b.shards, len(p.Records), n)
		return nil
	}
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		rec.fail(n, "shard %d/%d: encoding partial: %v", shard, b.shards, err)
		return nil
	}
	if b.partials[shard] == nil {
		b.partials[shard] = buf.Bytes()
		for _, r := range p.Records {
			b.events += r.Result.Events
		}
	} else if !bytes.Equal(buf.Bytes(), b.partials[shard]) {
		rec.fail(n, "shard %d/%d: partial differs from the first pass", shard, b.shards)
		return nil
	}
	rec.unit("trial", u.per(float64(n)))
	return p
}

// merge reduces one pass's partials; a refused merge or one that differs
// from the first pass's counts as one failed unit. Its cost is spread over
// the pass's trials, so a trial's unit time includes its share.
func (b *campaignBench) merge(rec *recorder, root int, partials []*campaign.Partial) {
	rec.attempt(1)
	id := rec.begin(root, "campaign", "merge")
	meter := startMeter()
	m, err := campaign.Merge(partials)
	u := meter.stop(0)
	rec.end(id)
	if err != nil {
		rec.fail(1, "merge: %v", err)
		return
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		rec.fail(1, "encoding merged report: %v", err)
		return
	}
	if b.merged == nil {
		b.merged = buf.Bytes()
	} else if !bytes.Equal(buf.Bytes(), b.merged) {
		rec.fail(1, "merged report differs from the first pass")
		return
	}
	rec.unit("merge", u.per(float64(b.trials())))
}

// layerMetrics reports the campaign's shard runs and its merge at the
// scale of one whole campaign, from the per-trial unit medians.
func (b *campaignBench) layerMetrics(rec *recorder) map[string]float64 {
	return map[string]float64{
		"campaign.run_s":    rec.keyMs("trial") * float64(b.trials()) / 1000,
		"campaign.merge_ms": rec.keyMs("merge") * float64(b.trials()),
		"sim.events":        per(float64(b.events), float64(b.trials())),
	}
}

func (b *campaignBench) detail(rec *recorder) map[string]float64 {
	return map[string]float64{"campaign.merge_ms": rec.keyMs("merge") * float64(b.trials())}
}

func (b *campaignBench) trials() int {
	n := 0
	for _, k := range b.owned {
		n += k
	}
	return n
}

func (b *campaignBench) sizes() map[string]any {
	return map[string]any{"trials": b.trials(), "shards": b.shards, "family": "mixed", "horizon_s": 90}
}

func (b *campaignBench) outputSHA() string { return fmt.Sprintf("%x", sha256.Sum256(b.merged)) }

func (b *campaignBench) close() error { return nil }
