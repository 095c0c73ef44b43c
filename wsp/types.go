package wsp

import (
	"math/rand"

	"repro/internal/agentplan"
	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/flow"
	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/warehouse"
	"repro/internal/workload"
)

// This file re-exports the building blocks an embedding program needs to
// construct instances and consume results, so programs built on the
// facade never import repro/internal/... directly. The aliases are the
// internal types themselves — values flow freely between the facade and
// any future internal surface — and the constructors are thin forwards.

// Floorplan building blocks.
type (
	// Grid is a 4-connected warehouse floorplan.
	Grid = grid.Grid
	// Coord is an (X, Y) cell address on a Grid.
	Coord = grid.Coord
	// VertexID identifies a traversable cell of a Grid.
	VertexID = grid.VertexID
	// Warehouse couples a floorplan with shelf stock and stations.
	Warehouse = warehouse.Warehouse
	// Workload is a per-product demand vector.
	Workload = warehouse.Workload
	// Plan is a realized multi-agent plan (paths plus pick/drop events).
	Plan = warehouse.Plan
	// ProductID indexes a product.
	ProductID = warehouse.ProductID
)

// NoVertex is the sentinel for "no vertex".
const NoVertex = grid.None

// ParseGrid parses an ASCII floorplan ('.' aisle, '@'/'#' obstacles —
// '@' marking shelves — and 'T' stations), returning the grid plus the
// shelf and station coordinates.
func ParseGrid(text string) (g *Grid, shelves, stations []Coord, err error) {
	return grid.Parse(text)
}

// NewWarehouse builds a warehouse model: shelfAccess lists the aisle
// cells from which each shelf is picked, stock[k][i] is the units of
// product k on shelf i.
func NewWarehouse(g *Grid, shelfAccess, stations []VertexID, numProducts int, stock [][]int) (*Warehouse, error) {
	return warehouse.New(g, shelfAccess, stations, numProducts, stock)
}

// NewWorkload validates a per-product demand vector against the
// warehouse's stock.
func NewWorkload(w *Warehouse, units []int) (Workload, error) {
	return warehouse.NewWorkload(w, units)
}

// UniformWorkload spreads totalUnits evenly over the warehouse's products.
func UniformWorkload(w *Warehouse, totalUnits int) (Workload, error) {
	return workload.Uniform(w, totalUnits)
}

// SkewedWorkload draws a Zipf-like demand vector (head products dominate,
// as in e-commerce traffic) totalling totalUnits.
func SkewedWorkload(w *Warehouse, totalUnits int, rng *rand.Rand) (Workload, error) {
	return workload.Skewed(w, totalUnits, rng)
}

// SingleWorkload demands totalUnits of one product.
func SingleWorkload(w *Warehouse, product ProductID, totalUnits int) (Workload, error) {
	return workload.Single(w, product, totalUnits)
}

// Traffic-system building blocks.
type (
	// System is a built traffic system: the warehouse partitioned into
	// one-way components with its cycle structure.
	System = traffic.System
	// Component is one traffic-system component (shelving row, station
	// queue, or transport).
	Component = traffic.Component
	// ComponentID indexes a component within a System.
	ComponentID = traffic.ComponentID
	// TrafficStats summarizes a System (component/arc counts, cycle
	// time).
	TrafficStats = traffic.Stats
)

// BuildTraffic partitions the warehouse into the directed component paths
// given as cell sequences and wires them into a traffic System.
func BuildTraffic(w *Warehouse, paths [][]VertexID) (*System, error) {
	return traffic.Build(w, paths)
}

// RenderTraffic draws the traffic system as ASCII art (the Figs. 4/5
// rendering).
func RenderTraffic(s *System) string { return traffic.Render(s) }

// SummarizeTraffic computes component/arc counts and the cycle time.
func SummarizeTraffic(s *System) TrafficStats { return traffic.Summarize(s) }

// Solve results.
type (
	// Result is a solved WSP instance: plan, cycle set, flow set,
	// realization stats, simulation outcome, and stage timings.
	Result = core.Result
	// CycleSet is a synthesized agent cycle set.
	CycleSet = cycles.Set
	// Cycle is one agent cycle (component loop plus delivery legs).
	Cycle = cycles.Cycle
	// FlowSet is a synthesized per-period agent flow set (§IV-D).
	FlowSet = flow.Set
	// RealizeStats reports realization statistics: the team size. What
	// the plan delivers, and when, is on SimResult.
	RealizeStats = agentplan.Stats
	// SimResult is the validation replay's outcome: every violation and
	// the delivery and movement tallies.
	SimResult = sim.Result
	// Timing breaks down where a solve spent its time.
	Timing = core.Timing
)

// Execution under failures (beyond the nominal validation run).
type (
	// Failure freezes one agent for a duration during execution.
	Failure = sim.Failure
	// ExecResult reports a minimal-communication-policy execution.
	ExecResult = sim.ExecResult
)

// ExecuteMCP replays a plan under the minimal-communication policy with
// injected agent failures, within maxWall wall-clock timesteps.
func ExecuteMCP(w *Warehouse, plan *Plan, wl Workload, failures []Failure, maxWall int) (ExecResult, error) {
	return sim.ExecuteMCP(w, plan, wl, failures, maxWall)
}

// Throughput buckets a simulation's deliveries into windows of the given
// width — the data behind a throughput-over-time figure.
func Throughput(res SimResult, horizon, window int) []int {
	return sim.Throughput(res, horizon, window)
}
