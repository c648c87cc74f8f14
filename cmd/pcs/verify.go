package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/cli"
	"repro/internal/expers"
	"repro/internal/ledger"
	"repro/internal/runner"
	"repro/internal/version"
)

// verifyCommand checks a run directory after the fact: the hash chain
// in ledger.jsonl must link, every per-job digest must match its
// results.jsonl line, and the sidecar manifest/summary must agree with
// the chain. With -recompute N it additionally re-executes a sampled
// subset of the recorded cells with their recorded seeds and demands
// bit-identical output. The report goes to stdout, warnings to stderr.
func verifyCommand(stdout, stderr io.Writer) *cli.Command {
	var recompute int
	return &cli.Command{
		Name:    "verify",
		Summary: "verify a run directory's hash-chained ledger against its results",
		Usage:   "[-recompute N] RUNDIR",
		SetFlags: func(fs *flag.FlagSet) {
			fs.IntVar(&recompute, "recompute", 0, "re-execute N sampled cells and compare output bytes")
		},
		Run: func(fs *flag.FlagSet) error {
			if fs.NArg() != 1 {
				return fmt.Errorf("need exactly one run directory (got %d args)", fs.NArg())
			}
			dir := fs.Arg(0)
			rep, err := ledger.VerifyDir(dir)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%s: ledger OK\n", dir)
			fmt.Fprintf(stdout, "  campaign %q: %d jobs (%d done, %d failed, %d cancelled, %d cached), seed %d\n",
				rep.Manifest.Campaign, rep.Manifest.Jobs,
				rep.Summary.Done, rep.Summary.Failed, rep.Summary.Cancelled, rep.Cached,
				rep.Manifest.Seed)
			fmt.Fprintf(stdout, "  code version %s\n", orUnknown(rep.Manifest.CodeVersion))
			fmt.Fprintf(stdout, "  specs digest %s\n", rep.Manifest.SpecsDigest)
			fmt.Fprintf(stdout, "  results digest %s\n", rep.Summary.ResultsDigest)
			for _, sc := range rep.Sidecars {
				fmt.Fprintf(stdout, "  sidecar %s: %d bytes, digest %s\n", sc.Name, sc.Bytes, sc.Digest)
			}
			if recompute > 0 {
				if err := recomputeSample(stdout, stderr, dir, rep, recompute); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

func orUnknown(s string) string {
	if s == "" {
		return "(unrecorded)"
	}
	return s
}

// recomputeSample re-executes up to n of the run's done jobs through
// the campaign registry, pinned to their recorded seeds, and compares
// the marshalled output byte for byte against the "output" field of the
// corresponding results.jsonl line. Sampling is deterministic: evenly
// spaced over the done jobs in index order.
func recomputeSample(stdout, stderr io.Writer, dir string, rep *ledger.Report, n int) error {
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return err
	}
	var m struct {
		Specs []runner.Spec `json:"specs"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("manifest.json: %w", err)
	}
	if len(m.Specs) != len(rep.Results) {
		return fmt.Errorf("manifest.json lists %d specs, ledger has %d results", len(m.Specs), len(rep.Results))
	}

	data, err := os.ReadFile(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		return err
	}
	lines := bytes.Split(bytes.TrimRight(data, "\n"), []byte("\n"))
	if len(lines) != len(rep.Results) {
		return fmt.Errorf("results.jsonl has %d lines, ledger has %d results", len(lines), len(rep.Results))
	}

	var done []int
	for _, r := range rep.Results {
		if r.Status == string(runner.StatusDone) {
			done = append(done, r.Index)
		}
	}
	if len(done) == 0 {
		return fmt.Errorf("run has no done jobs to recompute")
	}
	if n > len(done) {
		n = len(done)
	}
	if v := version.String(); rep.Manifest.CodeVersion != "" && rep.Manifest.CodeVersion != v {
		fmt.Fprintf(stderr, "pcs verify: warning: run was produced by code version %s, this binary is %s — recomputation may legitimately differ\n",
			rep.Manifest.CodeVersion, v)
	}

	reg := expers.NewCampaignRegistry()
	for k := 0; k < n; k++ {
		idx := done[k*len(done)/n]
		spec := m.Specs[idx]
		rec := rep.Results[idx]
		fn, ok := reg.Lookup(spec.Kind)
		if !ok {
			return fmt.Errorf("job %d: kind %q not in the campaign registry", idx, spec.Kind)
		}
		out, err := fn(context.Background(), rec.Seed, spec.Params)
		if err != nil {
			return fmt.Errorf("job %d (%s): recomputation failed: %w", idx, spec.Kind, err)
		}
		got, err := json.Marshal(out)
		if err != nil {
			return fmt.Errorf("job %d: marshal recomputed output: %w", idx, err)
		}
		var line struct {
			Output json.RawMessage `json:"output"`
		}
		if err := json.Unmarshal(lines[idx], &line); err != nil {
			return fmt.Errorf("results.jsonl line %d: %w", idx, err)
		}
		if !bytes.Equal(got, []byte(line.Output)) {
			return fmt.Errorf("job %d (%s, seed %d): recomputed output differs from recorded output", idx, spec.Kind, rec.Seed)
		}
		fmt.Fprintf(stdout, "  recomputed job %d (%s, seed %d): bit-identical\n", idx, spec.Kind, rec.Seed)
	}
	fmt.Fprintf(stdout, "%s: %d/%d done cells recomputed bit-identically\n", dir, n, len(done))
	return nil
}
