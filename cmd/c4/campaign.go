package main

import (
	"fmt"
	"io"

	"c4/internal/campaign"
	"c4/internal/metrics"
)

func campaignUsage(stderr io.Writer) int {
	fmt.Fprintln(stderr, `usage: c4 campaign <expand|run|merge|check> [flags]

  expand -manifest m.json
      print the deterministic numbered trial list the manifest expands to
  run -manifest m.json [-shard i/n] [-out file] [-checkpoint file] [-workers k]
      execute one shard's trials and write its partial-result artifact
  merge [-manifest m.json] [-out file] [-check] partial.json...
      combine shard partials into the merged report (refuses hash
      mismatches, duplicate trials and gaps)
  check [-manifest m.json] merged.json
      validate a merged report: coverage, ordering, finite statistics`)
	return 2
}

// runCampaign is `c4 campaign`: it drives manifest-defined Monte-Carlo
// campaigns at scale. It expands a versioned JSON manifest (campaign
// families × seed ranges × knob grids) into a numbered trial list,
// executes one shard's stride of it with checkpointed resumability, and
// deterministically merges shard partials into a single report with
// bootstrap confidence intervals — byte-identical to a serial
// single-shard run.
//
//	c4 campaign expand -manifest m.json              # print the trial list
//	c4 campaign run -manifest m.json -shard 0/4 \
//	    -out p0.json -checkpoint p0.ckpt             # run one shard
//	c4 campaign merge -out merged.json p0.json ...   # reduce partials
//	c4 campaign check merged.json                    # validate a report
func runCampaign(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		return campaignUsage(stderr)
	}
	switch args[0] {
	case "expand":
		return campaignExpand(args[1:], stdout, stderr)
	case "run":
		return campaignRun(args[1:], stdout, stderr)
	case "merge":
		return campaignMerge(args[1:], stdout, stderr)
	case "check":
		return campaignCheck(args[1:], stdout, stderr)
	case "-h", "-help", "--help":
		campaignUsage(stderr)
		return 0
	}
	fmt.Fprintf(stderr, "c4 campaign: unknown subcommand %q\n", args[0])
	return campaignUsage(stderr)
}

func campaignExpand(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("campaign expand", stderr)
	manifest := fs.String("manifest", "", "experiment manifest (JSON)")
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}
	if *manifest == "" {
		fmt.Fprintln(stderr, "c4 campaign expand: -manifest is required")
		return 2
	}
	m, err := campaign.LoadManifest(*manifest)
	if err != nil {
		fmt.Fprintf(stderr, "c4 campaign: %v\n", err)
		return 1
	}
	specs, err := m.Expand()
	if err != nil {
		fmt.Fprintf(stderr, "c4 campaign: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "manifest %s (%s): %d trials\n", m.Name, m.Hash(), len(specs))
	rows := make([][]string, 0, len(specs))
	for _, ts := range specs {
		rows = append(rows, []string{
			fmt.Sprint(ts.Index), ts.Family, fmt.Sprint(ts.Seed), ts.Knobs,
			ts.Trial.ID, fmt.Sprint(ts.TrialSeed), ts.Horizon.String(),
		})
	}
	fmt.Fprint(stdout, metrics.Table(
		[]string{"index", "family", "seed", "knobs", "trial", "trial-seed", "horizon"}, rows))
	return 0
}

func campaignRun(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("campaign run", stderr)
	var (
		manifest   = fs.String("manifest", "", "experiment manifest (JSON)")
		shard      = fs.String("shard", "0/1", "shard coordinates i/n: run trials with index ≡ i (mod n)")
		out        = fs.String("out", "", "partial-result artifact path (default stdout)")
		checkpoint = fs.String("checkpoint", "", "per-shard JSONL progress file; an interrupted run resumes from it, re-running only missing trials")
		workers    = fs.Int("workers", 0, "concurrent trials (0 = GOMAXPROCS)")
	)
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}
	if *manifest == "" {
		fmt.Fprintln(stderr, "c4 campaign run: -manifest is required")
		return 2
	}
	sh, of, err := parseShard(*shard)
	if err != nil {
		fmt.Fprintf(stderr, "c4 campaign run: %v\n", err)
		return 2
	}
	m, err := campaign.LoadManifest(*manifest)
	if err != nil {
		fmt.Fprintf(stderr, "c4 campaign: %v\n", err)
		return 1
	}
	sr := &campaign.ShardRun{
		Manifest: m, Shard: sh, Of: of,
		Workers: *workers, Checkpoint: *checkpoint, Log: stderr,
	}
	p, err := sr.Run()
	if err != nil {
		fmt.Fprintf(stderr, "c4 campaign: %v\n", err)
		return 1
	}
	if err := writeFile(*out, stdout, p.WriteJSON); err != nil {
		fmt.Fprintf(stderr, "c4 campaign: %v\n", err)
		return 1
	}
	if *out != "" {
		fmt.Fprintf(stdout, "shard %d/%d: %d trials -> %s\n", sh, of, len(p.Records), *out)
	}
	return 0
}

func campaignMerge(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("campaign merge", stderr)
	var (
		manifest = fs.String("manifest", "", "verify partials against this manifest's hash before merging (optional)")
		out      = fs.String("out", "", "merged-report path (default stdout)")
		check    = fs.Bool("check", false, "validate the merged report (coverage, ordering, finite statistics) and fail on violations")
	)
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "c4 campaign merge: no partials given")
		return 2
	}
	var partials []*campaign.Partial
	for _, path := range fs.Args() {
		p, err := campaign.LoadPartial(path)
		if err != nil {
			fmt.Fprintf(stderr, "c4 campaign: %v\n", err)
			return 1
		}
		partials = append(partials, p)
	}
	var merged *campaign.Merged
	var err error
	if *manifest != "" {
		m, merr := campaign.LoadManifest(*manifest)
		if merr != nil {
			fmt.Fprintf(stderr, "c4 campaign: %v\n", merr)
			return 1
		}
		merged, err = campaign.MergeHash(m, partials)
	} else {
		merged, err = campaign.Merge(partials)
	}
	if err != nil {
		fmt.Fprintf(stderr, "c4 campaign: %v\n", err)
		return 1
	}
	if *check {
		if err := merged.Check(); err != nil {
			fmt.Fprintf(stderr, "c4 campaign: %v\n", err)
			return 1
		}
	}
	if err := writeFile(*out, stdout, merged.WriteJSON); err != nil {
		fmt.Fprintf(stderr, "c4 campaign: %v\n", err)
		return 1
	}
	if *out != "" {
		fmt.Fprint(stdout, merged.String())
	}
	return 0
}

func campaignCheck(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("campaign check", stderr)
	manifest := fs.String("manifest", "", "additionally require the report's manifest hash to match this manifest")
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "c4 campaign check: exactly one merged report expected")
		return 2
	}
	merged, err := campaign.LoadMerged(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "c4 campaign: %v\n", err)
		return 1
	}
	if *manifest != "" {
		m, err := campaign.LoadManifest(*manifest)
		if err != nil {
			fmt.Fprintf(stderr, "c4 campaign: %v\n", err)
			return 1
		}
		if h := m.Hash(); merged.ManifestHash != h {
			fmt.Fprintf(stderr, "c4 campaign: report ran manifest %s, not %s (%s)\n", merged.ManifestHash, h, m.Name)
			return 1
		}
	}
	if err := merged.Check(); err != nil {
		fmt.Fprintf(stderr, "c4 campaign: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s: OK (%d trials)\n%s", fs.Arg(0), merged.Trials, merged.String())
	return 0
}
