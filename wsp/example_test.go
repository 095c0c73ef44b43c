package wsp_test

import (
	"context"
	"errors"
	"fmt"
	"log"

	"repro/wsp"
)

// ringInstance builds the quickstart warehouse: a one-way ring around an
// interior block with two shelves and one packing station.
func ringInstance() (wsp.Instance, error) {
	g, _, stationCoords, err := wsp.ParseGrid(
		"..........\n" +
			".@@######.\n" +
			".########.\n" +
			".########.\n" +
			".########.\n" +
			"....T.....")
	if err != nil {
		return wsp.Instance{}, err
	}
	shelfAccess := []wsp.VertexID{
		g.At(wsp.Coord{X: 1, Y: 5}),
		g.At(wsp.Coord{X: 2, Y: 5}),
	}
	var stations []wsp.VertexID
	for _, c := range stationCoords {
		stations = append(stations, g.At(c))
	}
	w, err := wsp.NewWarehouse(g, shelfAccess, stations, 2, [][]int{{300, 0}, {0, 300}})
	if err != nil {
		return wsp.Instance{}, err
	}
	at := func(x, y int) wsp.VertexID { return g.At(wsp.Coord{X: x, Y: y}) }
	var south, east, north, west []wsp.VertexID
	for x := 0; x <= 9; x++ {
		south = append(south, at(x, 0))
	}
	for y := 1; y <= 5; y++ {
		east = append(east, at(9, y))
	}
	for x := 8; x >= 0; x-- {
		north = append(north, at(x, 5))
	}
	for y := 4; y >= 1; y-- {
		west = append(west, at(0, y))
	}
	sys, err := wsp.BuildTraffic(w, [][]wsp.VertexID{south, east, north, west})
	if err != nil {
		return wsp.Instance{}, err
	}
	wl, err := wsp.NewWorkload(w, []int{12, 7})
	if err != nil {
		return wsp.Instance{}, err
	}
	return wsp.Instance{System: sys, Workload: wl, Horizon: 800}, nil
}

// The five-minute tour: build an instance, solve it, read the plan stats.
// Solves are deterministic, so the output is stable.
func ExampleSolver_Solve() {
	inst, err := ringInstance()
	if err != nil {
		log.Fatal(err)
	}
	solver := wsp.New() // defaults: route-packing strategy
	res, err := solver.Solve(context.Background(), inst)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("agents: %d\n", res.Stats.Agents)
	fmt.Printf("serviced at: t=%d\n", res.Sim.ServicedAt)
	fmt.Printf("delivered: %v\n", res.Sim.Delivered)
	// Output:
	// agents: 4
	// serviced at: t=406
	// delivered: [12 7]
}

// Cancellation rides the context: a cancelled solve returns an error that
// classifies as ErrCanceled via errors.Is, within one work-budget tick of
// the channel firing.
func ExampleSolver_Solve_cancellation() {
	inst, err := ringInstance()
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the operator walked away before the solve started

	solver := wsp.New(wsp.WithStrategy(wsp.ContractILP), wsp.WithExact(true))
	_, err = solver.Solve(ctx, inst)
	fmt.Println("canceled:", errors.Is(err, wsp.ErrCanceled))
	// Output:
	// canceled: true
}

// The error taxonomy classifies failures without string matching: here the
// integral search proves the contract conjunction of a two-cycle-period
// horizon unsatisfiable, a verdict on integral flow sets only.
func ExampleSolver_Solve_taxonomy() {
	inst, err := ringInstance()
	if err != nil {
		log.Fatal(err)
	}
	inst.Horizon = 60 // far too short to service 19 units

	solver := wsp.New(wsp.WithStrategy(wsp.ContractILP))
	_, err = solver.Solve(context.Background(), inst)
	fmt.Println("infeasible:", errors.Is(err, wsp.ErrInfeasible))
	var ie *wsp.InfeasibleError
	if errors.As(err, &ie) {
		fmt.Println("certificate:", ie.Cert)
	}
	// Output:
	// infeasible: true
	// certificate: maybe-feasible
}

// SolveBatch drains a batch over a bounded worker pool; results are
// bit-identical to sequential solves regardless of width.
func ExampleSolver_SolveBatch() {
	inst, err := ringInstance()
	if err != nil {
		log.Fatal(err)
	}
	solver := wsp.New(wsp.WithParallel(2))
	for i, r := range solver.SolveBatch(context.Background(), []wsp.Instance{inst, inst}) {
		if r.Err != nil {
			log.Fatal(r.Err)
		}
		fmt.Printf("instance %d: %d agents, serviced t=%d\n", i, r.Res.Stats.Agents, r.Res.Sim.ServicedAt)
	}
	// Output:
	// instance 0: 4 agents, serviced t=406
	// instance 1: 4 agents, serviced t=406
}
