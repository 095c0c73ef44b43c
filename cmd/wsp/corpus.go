package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"repro/wsp"
)

// cmdCorpus dispatches the scenario-corpus toolchain:
//
//	wsp corpus list      [-seed N] [-families a,b]
//	wsp corpus run       [-seed N] [-families a,b] [-strategy route] [-json report.json] [-bench -]
//	wsp corpus calibrate [-seed N] [-families a,b] [-maxwork 0,200000] [-maxnodes 0,500] ...
func cmdCorpus(ctx context.Context, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: wsp corpus <list|run|calibrate> [flags]")
	}
	switch args[0] {
	case "list":
		return cmdCorpusList(args[1:])
	case "run":
		return cmdCorpusRun(ctx, args[1:])
	case "calibrate":
		return cmdCorpusCalibrate(ctx, args[1:])
	}
	return fmt.Errorf("unknown corpus subcommand %q (want list, run, or calibrate)", args[0])
}

func parseFamilies(csv string) []string {
	if strings.TrimSpace(csv) == "" {
		return nil
	}
	var out []string
	for _, f := range strings.Split(csv, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// cmdCorpusList enumerates the generator families and, for a seed, the
// reproducible instances each one yields.
func cmdCorpusList(args []string) error {
	fs := flag.NewFlagSet("corpus list", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "corpus seed (same seed → byte-identical instances)")
	families := fs.String("families", "", "comma-separated family filter (empty = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	insts, err := wsp.GenerateCorpus(*seed, parseFamilies(*families)...)
	if err != nil {
		return err
	}
	byFamily := map[string]int{}
	for _, in := range insts {
		byFamily[in.Family]++
	}
	for _, f := range wsp.CorpusFamilies() {
		if n, ok := byFamily[f.Name]; ok {
			fmt.Printf("%s (%d instances): %s\n", f.Name, n, f.Desc)
		}
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\nInstance\tProducts\tUnits\tComponents\ttc\tHorizon")
	for _, in := range insts {
		st := wsp.SummarizeTraffic(in.Sys)
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\n",
			in.Name, in.Sys.W.NumProducts, in.WL.TotalUnits(), st.Components, st.CycleTime, in.T)
	}
	return tw.Flush()
}

// cmdCorpusRun solves the corpus under one knob set and prints per-family
// health: solve rate, verdicts, latency percentiles, deterministic work.
func cmdCorpusRun(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("corpus run", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "corpus seed (same seed → byte-identical instances)")
	families := fs.String("families", "", "comma-separated family filter (empty = all)")
	label := fs.String("label", "corpus", "report label (benchjson snapshot label)")
	jsonOut := fs.String("json", "", "write the full JSON report to this file")
	bench := fs.String("bench", "", "write benchjson-compatible lines to this file ('-' = stdout)")
	strat := fs.String("strategy", "route", "synthesis strategy: route, flows, or contract")
	var cfg wsp.Config
	fs.BoolVar(&cfg.Exact, "exact", false, "exact rational arithmetic for the contract strategy")
	fs.Int64Var(&cfg.MaxWork, "maxwork", 0, "per-attempt simplex work budget (0 = default)")
	fs.IntVar(&cfg.MaxNodes, "maxnodes", 0, "per-attempt branch-and-bound node budget (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	strategy, err := wsp.ParseStrategy(*strat)
	if err != nil {
		return err
	}
	cfg.Strategy = strategy
	if err := cfg.Validate(); err != nil {
		return err
	}
	insts, err := wsp.GenerateCorpus(*seed, parseFamilies(*families)...)
	if err != nil {
		return err
	}
	start := time.Now()
	rep := wsp.RunCorpus(ctx, insts, cfg, *label, *seed)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Family\tSolved\tVerdicts\tp50ms\tp95ms\tp99ms\tWork")
	for _, f := range rep.Families {
		var verdicts []string
		for _, v := range []wsp.CorpusVerdict{wsp.CorpusInfeasible, wsp.CorpusHorizon,
			wsp.CorpusBudget, wsp.CorpusCanceled, wsp.CorpusError} {
			if n := f.Verdicts[v]; n > 0 {
				verdicts = append(verdicts, fmt.Sprintf("%d %s", n, v))
			}
		}
		vcol := strings.Join(verdicts, ", ")
		if vcol == "" {
			vcol = "-"
		}
		fmt.Fprintf(tw, "%s\t%d/%d\t%s\t%.1f\t%.1f\t%.1f\t%d\n",
			f.Family, f.Solved, f.Instances, vcol, f.P50Millis, f.P95Millis, f.P99Millis, f.Work)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Printf("\n%d instances in %v\n", len(rep.Instances), time.Since(start).Round(time.Millisecond))
	if *jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
	if *bench != "" {
		w := os.Stdout
		if *bench != "-" {
			f, err := os.Create(*bench)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		if err := wsp.WriteCorpusBenchLines(w, rep); err != nil {
			return err
		}
	}
	// A cancelled run already drained the remaining instances as canceled
	// verdicts; surface the interruption through the exit code too.
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("corpus run interrupted: %w", wsp.ErrCanceled)
	}
	return nil
}

func parseInt64s(csv string) ([]int64, error) {
	var out []int64
	for _, f := range strings.Split(csv, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

// cmdCorpusCalibrate grid-searches knob defaults over the corpus and
// prints the scored candidate table with the recommended knob set.
func cmdCorpusCalibrate(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("corpus calibrate", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "corpus seed (same seed → byte-identical instances)")
	families := fs.String("families", "stripes", "comma-separated family filter (empty = all)")
	maxWork := fs.String("maxwork", "0", "comma-separated per-attempt work budgets")
	maxNodes := fs.String("maxnodes", "0", "comma-separated per-attempt node budgets")
	strat := fs.String("strategy", "contract", "base synthesis strategy: route, flows, or contract")
	if err := fs.Parse(args); err != nil {
		return err
	}
	strategy, err := wsp.ParseStrategy(*strat)
	if err != nil {
		return err
	}
	wbs, err := parseInt64s(*maxWork)
	if err != nil {
		return fmt.Errorf("bad -maxwork: %w", err)
	}
	nbs, err := parseInts(*maxNodes)
	if err != nil {
		return fmt.Errorf("bad -maxnodes: %w", err)
	}
	spec := wsp.CalibrationSpec{
		Base:        wsp.Config{Strategy: strategy},
		WorkBudgets: wbs, NodeBudgets: nbs,
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	insts, err := wsp.GenerateCorpus(*seed, parseFamilies(*families)...)
	if err != nil {
		return err
	}
	start := time.Now()
	table, err := wsp.CalibrateCorpus(ctx, insts, spec)
	if err != nil {
		return err
	}
	if err := table.Format(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\n%d candidates × %d instances in %v\n",
		len(table.Candidates), len(insts), time.Since(start).Round(time.Millisecond))
	return nil
}
