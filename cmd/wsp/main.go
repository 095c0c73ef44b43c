// Command wsp is the toolchain driver: it solves WSP instances on the
// paper's evaluation maps, renders traffic-system maps (Figs. 4 and 5), and
// prints per-instance statistics. It is built entirely on the public wsp
// facade — the same API an embedding program uses.
//
// Usage:
//
//	wsp map   -name fulfillment1|fulfillment2|sorting
//	wsp solve -name sorting -units 480 [-T 3600] [-strategy route|flows|contract]
//	wsp table [-parallel N]                # reproduce Table I (N-wide solver pool)
//	wsp sweep [-corridors 2,3,4] [-lens 6,7,9] [-units 480] [-points 3]
//	                                       # walk the Fig. 5 co-design grid
//	wsp lifelong -name sorting -batches 0:160,1200:160 [-T 3600] [-stream]
//	                                       # service batches released over time
//	wsp corpus list|run|calibrate [-seed N] [-families stripes,rings,demand,movingai]
//	                                       # scenario corpus: enumerate, measure, tune knobs
//
// SIGINT/SIGTERM cancel the in-flight context: solves abort within one LP
// work-budget tick, commands flush whatever completed (a sweep prints its
// finished rows), and the process exits with code 130 instead of dying
// mid-write.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"repro/wsp"
)

// exitCanceled distinguishes an operator interrupt (128+SIGINT) from an
// ordinary failure (1) and a usage error (2).
const exitCanceled = 130

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// One context for the whole command: the first SIGINT/SIGTERM cancels
	// it (solves unwind and partial output flushes), a second signal kills
	// the process via the restored default handler.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	switch os.Args[1] {
	case "map":
		err = cmdMap(os.Args[2:])
	case "solve":
		err = cmdSolve(ctx, os.Args[2:])
	case "table":
		err = cmdTable(ctx, os.Args[2:])
	case "sweep":
		err = cmdSweep(ctx, os.Args[2:])
	case "lifelong":
		err = cmdLifelong(ctx, os.Args[2:])
	case "corpus":
		err = cmdCorpus(ctx, os.Args[2:])
	case "export":
		err = cmdExport(os.Args[2:])
	case "solvefile":
		err = cmdSolveFile(ctx, os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		msg := err.Error()
		if !strings.HasPrefix(msg, "wsp: ") {
			msg = "wsp: " + msg
		}
		fmt.Fprintln(os.Stderr, msg)
		if errors.Is(err, wsp.ErrCanceled) {
			os.Exit(exitCanceled)
		}
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: wsp <map|solve|table|sweep|lifelong|corpus|export|solvefile> [flags]")
}

// cmdExport writes a built-in instance to a JSON file that solvefile (or a
// third-party tool) can consume.
func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	name := fs.String("name", "sorting", "map name")
	units := fs.Int("units", 160, "total units to move")
	T := fs.Int("T", 3600, "timestep limit")
	out := fs.String("o", "instance.json", "output file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := wsp.BuiltinMap(*name)
	if err != nil {
		return err
	}
	wl, err := wsp.UniformWorkload(m.W, *units)
	if err != nil {
		return err
	}
	inst, err := wsp.EncodeInstance(m.S, &wl, *T, *name)
	if err != nil {
		return err
	}
	data, err := wsp.MarshalInstance(inst)
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d bytes)\n", *out, len(data))
	return nil
}

// cmdSolveFile solves an instance previously exported (or hand-written).
func cmdSolveFile(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("solvefile", flag.ExitOnError)
	in := fs.String("f", "instance.json", "instance file")
	strat := fs.String("strategy", "route", "synthesis strategy: route, flows, or contract")
	if err := fs.Parse(args); err != nil {
		return err
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	inst, err := wsp.UnmarshalInstance(data)
	if err != nil {
		return err
	}
	s, wl, err := wsp.DecodeInstance(inst)
	if err != nil {
		return err
	}
	if wl == nil {
		return fmt.Errorf("instance %s has no workload", *in)
	}
	strategy, err := wsp.ParseStrategy(*strat)
	if err != nil {
		return err
	}
	T := inst.T
	if T == 0 {
		T = 3600
	}
	solver := wsp.New(wsp.WithStrategy(strategy))
	start := time.Now()
	res, err := solver.Solve(ctx, wsp.Instance{System: s, Workload: *wl, Horizon: T})
	if err != nil {
		return err
	}
	fmt.Printf("solved %s (%d units) in %v: %d agents, serviced at t=%d of %d\n",
		*in, wl.TotalUnits(), time.Since(start), res.Stats.Agents, res.Sim.ServicedAt, T)
	return nil
}

func cmdMap(args []string) error {
	fs := flag.NewFlagSet("map", flag.ExitOnError)
	name := fs.String("name", "sorting", "map name")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := wsp.BuiltinMap(*name)
	if err != nil {
		return err
	}
	fmt.Print(wsp.RenderTraffic(m.S))
	st := wsp.SummarizeTraffic(m.S)
	fmt.Printf("\n%s: %d cells, %d shelves, %d stations, %d products\n",
		*name, m.W.Graph.NumVertices(), len(m.Shelves), len(m.W.Stations), m.W.NumProducts)
	fmt.Printf("components: %d (%d shelving rows, %d station queues, %d transports), %d arcs, tc=%d\n",
		st.Components, st.ShelvingRows, st.StationQueues, st.Transports, st.Edges, st.CycleTime)
	return nil
}

func cmdSolve(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("solve", flag.ExitOnError)
	name := fs.String("name", "sorting", "map name")
	units := fs.Int("units", 160, "total units to move")
	T := fs.Int("T", 3600, "timestep limit")
	strat := fs.String("strategy", "route", "synthesis strategy: route, flows, or contract")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := wsp.BuiltinMap(*name)
	if err != nil {
		return err
	}
	strategy, err := wsp.ParseStrategy(*strat)
	if err != nil {
		return err
	}
	wl, err := wsp.UniformWorkload(m.W, *units)
	if err != nil {
		return err
	}
	solver := wsp.New(wsp.WithStrategy(strategy))
	start := time.Now()
	res, err := solver.Solve(ctx, wsp.Instance{System: m.S, Workload: wl, Horizon: *T})
	if err != nil {
		return err
	}
	fmt.Printf("solved %s (%d units, %d products) in %v\n", *name, *units, m.W.NumProducts, time.Since(start))
	fmt.Printf("  strategy:   %v (attempt %d)\n", strategy, res.Attempts)
	fmt.Printf("  agents:     %d in %d cycles\n", res.Stats.Agents, len(res.CycleSet.Cycles))
	fmt.Printf("  serviced:   timestep %d of %d\n", res.Sim.ServicedAt, *T)
	fmt.Printf("  synthesis:  %v\n", res.Timing.Synthesis)
	fmt.Printf("  realize+validate: %v\n", res.Timing.Realize)
	return nil
}

// cmdSweep walks a co-design grid in the style of the paper's Fig. 5 via
// Solver.Sweep. On interrupt the completed rows are flushed before the
// distinct cancellation exit code — a half-walked grid is still data.
func cmdSweep(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	corridors := fs.String("corridors", "2,3,4", "comma-separated corridor widths (also sets aisle rows)")
	lens := fs.String("lens", "6,7,9", "comma-separated component-length caps")
	stripes := fs.Int("stripes", 4, "stripes per generated topology")
	products := fs.Int("products", 48, "distinct products per generated topology")
	units := fs.Int("units", 480, "total units at the top workload level")
	points := fs.Int("points", 3, "workload levels per topology (units·i/points, i=1..points)")
	T := fs.Int("T", 3600, "timestep limit")
	strat := fs.String("strategy", "route", "synthesis strategy: route, flows, or contract")
	parallel := fs.Int("parallel", 1, "solver pool width (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	vs, err := parseInts(*corridors)
	if err != nil {
		return fmt.Errorf("bad -corridors: %w", err)
	}
	ls, err := parseInts(*lens)
	if err != nil {
		return fmt.Errorf("bad -lens: %w", err)
	}
	strategy, err := wsp.ParseStrategy(*strat)
	if err != nil {
		return err
	}
	solver := wsp.New(wsp.WithStrategy(strategy), wsp.WithParallel(*parallel))
	start := time.Now()
	cells, sweepErr := solver.Sweep(ctx, wsp.SweepSpec{
		Corridors: vs, Lens: ls,
		Stripes: *stripes, Products: *products,
		Units: *units, Points: *points, Horizon: *T,
	})
	// Flush whatever completed BEFORE reporting any error: an interrupted
	// sweep still prints its finished rows instead of dying mid-grid.
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "V\tL\tComponents\ttc\tUnits\tRuntime\tAgents\tServiced@")
	for _, cell := range cells {
		for _, pt := range cell.Points {
			if pt.Err != nil {
				// Infeasible design points are expected sweep outcomes,
				// not reasons to abandon the rest of the grid.
				fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%v\t-\tunsolved\n",
					cell.Corridor, cell.MaxLen, cell.Stats.Components, cell.Stats.CycleTime,
					pt.Units, pt.Elapsed.Round(time.Microsecond))
				continue
			}
			fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%v\t%d\t%d\n",
				cell.Corridor, cell.MaxLen, cell.Stats.Components, cell.Stats.CycleTime,
				pt.Units, pt.Elapsed.Round(time.Microsecond), pt.Result.Stats.Agents, pt.Result.Sim.ServicedAt)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if sweepErr != nil {
		return sweepErr
	}
	fmt.Printf("\n%d topologies × %d levels in %v\n",
		len(cells), *points, time.Since(start).Round(time.Microsecond))
	return nil
}

// cmdLifelong services batches released over time via Solver.Lifelong.
// With -stream, each epoch and batch completion prints as it happens (the
// engine's observer events); without it only the final summary appears. On
// interrupt the partial report — epochs completed so far — is still
// printed before the distinct cancellation exit code.
func cmdLifelong(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("lifelong", flag.ExitOnError)
	name := fs.String("name", "sorting", "map name")
	batchesArg := fs.String("batches", "0:160,1200:160", "comma-separated release:units batch list")
	T := fs.Int("T", 3600, "timestep limit for the whole run")
	strat := fs.String("strategy", "route", "synthesis strategy: route, flows, or contract")
	stream := fs.Bool("stream", false, "print each epoch and batch completion as it happens")
	window := fs.Int("window", 0, "throughput bin width in timesteps (0 = one cycle time; needs -stream)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := wsp.BuiltinMap(*name)
	if err != nil {
		return err
	}
	strategy, err := wsp.ParseStrategy(*strat)
	if err != nil {
		return err
	}
	var batches []wsp.Batch
	for _, f := range strings.Split(*batchesArg, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		rel, units, ok := strings.Cut(f, ":")
		if !ok {
			return fmt.Errorf("bad -batches entry %q (want release:units)", f)
		}
		r, err := strconv.Atoi(strings.TrimSpace(rel))
		if err != nil {
			return fmt.Errorf("bad -batches release %q: %w", rel, err)
		}
		u, err := strconv.Atoi(strings.TrimSpace(units))
		if err != nil {
			return fmt.Errorf("bad -batches units %q: %w", units, err)
		}
		wl, err := wsp.UniformWorkload(m.W, u)
		if err != nil {
			return err
		}
		batches = append(batches, wsp.Batch{Release: r, Units: wl.Units})
	}
	if len(batches) == 0 {
		return fmt.Errorf("empty -batches list")
	}

	var opts []wsp.LifelongOption
	if *stream {
		opts = append(opts, wsp.WithLifelongObserver(wsp.LifelongObserverFuncs{
			Epoch: func(er wsp.EpochReport) {
				fmt.Printf("epoch %d: t=%d..%d (horizon %d) agents=%d delivered=%d outstanding=%d\n",
					er.Epoch, er.Start, er.End, er.Horizon, er.Agents, sum(er.Delivered), sum(er.Outstanding))
			},
			BatchComplete: func(_ int, bs wsp.BatchStats) {
				fmt.Printf("batch released@%d completed at t=%d (%d units)\n",
					bs.Release, bs.Completed, bs.Units)
			},
		}))
		if *window > 0 {
			opts = append(opts, wsp.WithLifelongThroughputWindow(*window))
		}
	}
	solver := wsp.New(wsp.WithStrategy(strategy))
	start := time.Now()
	rep, runErr := solver.Lifelong(ctx, m.S, batches, *T, opts...)
	// Flush the (possibly partial) report BEFORE reporting any error: an
	// interrupted run still shows the epochs it completed.
	if rep != nil {
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "Release\tUnits\tCompleted@")
		for _, bs := range rep.Batches {
			if bs.Completed < 0 {
				fmt.Fprintf(tw, "%d\t%d\t-\n", bs.Release, bs.Units)
				continue
			}
			fmt.Fprintf(tw, "%d\t%d\t%d\n", bs.Release, bs.Units, bs.Completed)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
		fmt.Printf("\n%d epochs, peak %d agents, %d units delivered in %v\n",
			rep.Epochs, rep.PeakAgents, sum(rep.Delivered), time.Since(start).Round(time.Microsecond))
	}
	return runErr
}

func sum(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

func parseInts(csv string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(csv, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func cmdTable(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("table", flag.ExitOnError)
	T := fs.Int("T", 3600, "timestep limit")
	parallel := fs.Int("parallel", 1, "solver pool width (0 = GOMAXPROCS); results are bit-identical to -parallel 1")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rows := []struct {
		name  string
		units []int
	}{
		{"sorting", []int{160, 320, 480}},
		{"fulfillment1", []int{550, 825, 1100}},
		{"fulfillment2", []int{1200, 1320, 1440}},
	}
	type inst struct {
		name     string
		products int
		units    int
	}
	var insts []inst
	var batch []wsp.Instance
	for _, row := range rows {
		m, err := wsp.BuiltinMap(row.name)
		if err != nil {
			return err
		}
		for _, u := range row.units {
			wl, err := wsp.UniformWorkload(m.W, u)
			if err != nil {
				return err
			}
			insts = append(insts, inst{row.name, m.W.NumProducts, u})
			batch = append(batch, wsp.Instance{System: m.S, Workload: wl, Horizon: *T})
		}
	}
	solver := wsp.New(wsp.WithParallel(*parallel))
	start := time.Now()
	results := solver.SolveBatch(ctx, batch)
	elapsed := time.Since(start)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Map\tUnique Products\tUnits Moved\tRuntime\tAgents\tServiced@")
	for i, r := range results {
		if r.Err != nil {
			return fmt.Errorf("%s (%d units): %w", insts[i].name, insts[i].units, r.Err)
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%v\t%d\t%d\n",
			insts[i].name, insts[i].products, insts[i].units, r.Elapsed.Round(time.Microsecond),
			r.Res.Stats.Agents, r.Res.Sim.ServicedAt)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	// Mirror the pool's width resolution: 0 selects GOMAXPROCS, and no
	// more workers run than there are instances.
	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(batch) {
		workers = len(batch)
	}
	fmt.Printf("\n%d instances in %v (%d workers)\n", len(results), elapsed.Round(time.Microsecond), workers)
	return nil
}
