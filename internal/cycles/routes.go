package cycles

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/flow"
	"repro/internal/lp"
	"repro/internal/traffic"
	"repro/internal/warehouse"
)

// Options tunes Synthesize.
type Options struct {
	// WarmupMargin reserves cycle periods for realization warm-up. Zero
	// selects an automatic margin.
	WarmupMargin int
	// MaxLegsPerCycle caps how many (row, product) legs are packed into one
	// cycle. Zero means the default of 32.
	MaxLegsPerCycle int
	// Cancel, when non-nil, aborts the packing loop when the channel fires
	// (normally a context's Done channel). The check runs once per placed
	// leg — before each route/placement step, never inside the BFS — so a
	// cancelled synthesis returns within one packed cycle rather than one
	// full synthesis, and an uncancelled run performs exactly the work it
	// would with no channel installed. The error wraps lp.ErrCanceled.
	Cancel <-chan struct{}
	// Scratch, when non-nil, supplies reusable buffers so repeated
	// syntheses (the core.Solve retry loop, solver-pool workers) stay
	// allocation-free on the packing hot path. A Scratch must not be shared
	// between concurrent Synthesize calls.
	Scratch *Scratch
}

// Scratch holds the per-synthesis working buffers of the route packer. The
// zero value is ready to use; buffers grow to the largest instance seen and
// are reused on subsequent calls.
type Scratch struct {
	stockUsed []int32 // row*|ρ|+product -> units already assigned
	residual  []int   // component -> remaining intake capacity
	count     []int32 // component -> occurrences on the candidate loop
	prev      []int32 // BFS parent, -1 = unvisited
	queue     []traffic.ComponentID
	path      []traffic.ComponentID
	loop      []traffic.ComponentID
	cands     []traffic.ComponentID
}

// grow readies the scratch for a system with n components and p products.
func (sc *Scratch) grow(n, p int) {
	if cap(sc.stockUsed) < n*p {
		sc.stockUsed = make([]int32, n*p)
	}
	sc.stockUsed = sc.stockUsed[:n*p]
	for i := range sc.stockUsed {
		sc.stockUsed[i] = 0
	}
	if cap(sc.residual) < n {
		sc.residual = make([]int, n)
	}
	sc.residual = sc.residual[:n]
	if cap(sc.count) < n {
		sc.count = make([]int32, n)
		sc.prev = make([]int32, n)
	}
	sc.count = sc.count[:n]
	sc.prev = sc.prev[:n]
	for i := 0; i < n; i++ {
		sc.count[i] = 0
	}
}

// rowRef locates a shelving row on an open cycle's loop.
type rowRef struct {
	row traffic.ComponentID
	idx int // first index of the row within Cycle.Components
}

// Synthesize builds an agent cycle set directly by route packing — the
// strategy that scales to Table I. Each product's demand is split over its
// stocked shelving rows, chunked into legs, and legs are packed into cycles
// whose loops are routed over the residual component capacities (Property
// 4.1: a component is entered by at most ⌊|Ci|/2⌋ concurrent cycles).
//
// Compared with the flow-set path (flow.Synthesize* followed by
// FromFlowSet), route packing works at total-units granularity rather than
// integer units-per-period, which is what instances with hundreds of
// products and demand ≪ one unit per period per product require.
//
// All bookkeeping lives in flat slices indexed by the traffic system's
// component and arc numbering; with a warm Options.Scratch the packing loop
// itself does not allocate.
func Synthesize(s *traffic.System, wl warehouse.Workload, T int, opts Options) (*Set, error) {
	maxLegs := opts.MaxLegsPerCycle
	if maxLegs == 0 {
		maxLegs = 32
	}
	tc := s.CycleTime()
	if tc <= 0 {
		return nil, fmt.Errorf("cycles: traffic system has zero cycle time")
	}
	qc := T / tc
	if qc < 1 {
		return nil, fmt.Errorf("cycles: horizon %d shorter than one cycle period %d: %w", T, tc, flow.ErrHorizonTooShort)
	}
	margin := opts.WarmupMargin
	if margin == 0 {
		// Warm-up ends once every agent has completed one revolution; loop
		// lengths are bounded by the component count. Cap the reserve at an
		// eighth of the budget so tight instances keep enough per-cycle
		// delivery budget (the Solve retry loop widens the margin if the
		// realization falls short).
		margin = s.NumComponents() + 2
		if margin > qc/8 {
			margin = qc / 8
		}
	}
	qeff := qc - margin
	if qeff < 1 {
		qeff = 1
	}

	n := s.NumComponents()
	p := s.W.NumProducts
	sc := opts.Scratch
	if sc == nil {
		sc = &Scratch{}
	}
	sc.grow(n, p)

	cs := &Set{S: s, Tc: tc, Qc: qc, QEff: qeff}
	residual := sc.residual
	for i, c := range s.Components {
		residual[i] = c.Capacity()
	}
	queues := s.StationQueues()
	rows := sortedRows(s)

	// Feasibility-driven packing. A routed loop passes a set of shelving
	// rows; any product stocked on any of those rows can join the cycle as a
	// leg, sharing the cycle's delivery budget of qeff units (one queue
	// visit per period). Products are walked in index order; each share goes
	// to an already-open cycle when one passes a stocked row, and a new
	// cycle is routed over the residual capacities otherwise. Capacity
	// consumption is therefore interleaved with allocation, so the packing
	// self-balances across stripes and aisles.
	type openCycle struct {
		cyc      *Cycle
		budget   int
		legs     int
		queueIdx int
		rows     []rowRef // shelving rows on the loop, in loop order
	}
	var open []*openCycle

	stockLeft := func(ri traffic.ComponentID, k int) int {
		return s.UnitsAt(ri, warehouse.ProductID(k)) - int(sc.stockUsed[int(ri)*p+k])
	}
	addLeg := func(oc *openCycle, ri traffic.ComponentID, pickIdx, k, units int) {
		oc.cyc.Legs = append(oc.cyc.Legs, Leg{
			PickIdx: pickIdx,
			DropIdx: oc.queueIdx,
			Product: warehouse.ProductID(k),
			Quota:   units,
		})
		oc.budget -= units
		oc.legs++
		sc.stockUsed[int(ri)*p+k] += int32(units)
	}
	commitCand := func(loop []traffic.ComponentID) *openCycle {
		for _, comp := range loop {
			residual[comp]--
		}
		cyc := &Cycle{Components: loop}
		oc := &openCycle{cyc: cyc, budget: qeff, queueIdx: -1}
		for i, comp := range cyc.Components {
			if s.Components[comp].Kind == traffic.ShelvingRow {
				seen := false
				for _, rr := range oc.rows {
					if rr.row == comp {
						seen = true
						break
					}
				}
				if !seen {
					oc.rows = append(oc.rows, rowRef{row: comp, idx: i})
				}
			}
			if oc.queueIdx < 0 && s.Components[comp].Kind == traffic.StationQueue {
				oc.queueIdx = i
			}
		}
		cs.Cycles = append(cs.Cycles, cyc)
		open = append(open, oc)
		return oc
	}
	newCycle := func(k int) (*openCycle, error) {
		// Candidate target rows, by remaining stock of product k.
		cands := sc.cands[:0]
		for _, ri := range rows {
			if stockLeft(ri, k) > 0 {
				cands = append(cands, ri)
			}
		}
		sc.cands = cands
		sort.Slice(cands, func(a, b int) bool {
			sa, sb := stockLeft(cands[a], k), stockLeft(cands[b], k)
			if sa != sb {
				return sa > sb
			}
			return cands[a] < cands[b]
		})
		var attempts []string
		for _, ri := range cands {
			// Per-candidate cancellation: probing dominates the cost of
			// opening a cycle, so checking here bounds the cancel latency
			// by one probe instead of one full cycle opening.
			select {
			case <-opts.Cancel:
				return nil, fmt.Errorf("cycles: route probing canceled: %w", lp.ErrCanceled)
			default:
			}
			// Target the last segment of the row's aisle chain so the loop
			// traverses every segment of the aisle.
			target := zoneLast(s, ri)
			loop, err := findLoop(s, []traffic.ComponentID{target}, queues, residual, sc)
			if err != nil {
				attempts = append(attempts, fmt.Sprintf("row %d (target %d): %v", ri, target, err))
				continue
			}
			return commitCand(loop), nil
		}
		if len(attempts) == 0 {
			return nil, fmt.Errorf("cycles: product %d has no stocked shelving row", k)
		}
		return nil, fmt.Errorf("cycles: no feasible loop for product %d: %s", k, strings.Join(attempts, "; "))
	}

	for k, want := range wl.Units {
		remaining := want
		for remaining > 0 {
			select {
			case <-opts.Cancel:
				return nil, fmt.Errorf("cycles: route packing canceled with %d units of product %d unplaced: %w",
					remaining, k, lp.ErrCanceled)
			default:
			}
			// Prefer an open cycle passing a row that still stocks k. Among
			// equal gives the lowest row wins, then the earliest-opened cycle.
			var bestOC *openCycle
			bestPick := 0
			var bestRow traffic.ComponentID
			bestGive := 0
			for _, oc := range open {
				if oc.budget <= 0 || oc.legs >= maxLegs {
					continue
				}
				for _, rr := range oc.rows {
					give := stockLeft(rr.row, k)
					if give > oc.budget {
						give = oc.budget
					}
					if give > remaining {
						give = remaining
					}
					if give > bestGive || (give == bestGive && give > 0 && (bestOC == nil || rr.row < bestRow)) {
						bestOC, bestRow, bestPick, bestGive = oc, rr.row, rr.idx, give
					}
				}
			}
			if bestGive > 0 {
				addLeg(bestOC, bestRow, bestPick, k, bestGive)
				remaining -= bestGive
				continue
			}
			oc, err := newCycle(k)
			if errors.Is(err, lp.ErrCanceled) {
				return nil, fmt.Errorf("cycles: cannot place %d remaining units of product %d: %w", remaining, k, err)
			}
			if err != nil {
				// No loop fits the residual capacities: the same verdict
				// the flow strategies give a shortfall, which only an
				// exhaustive search could sharpen.
				return nil, &flow.InfeasibleError{Cert: flow.CertMaybeFeasible, Horizon: T,
					Reason: fmt.Sprintf("cycles: cannot place %d remaining units of product %d: %v", remaining, k, err)}
			}
			// The new cycle must serve k (its target row stocks it).
			give := 0
			givePick := 0
			var giveRow traffic.ComponentID
			for _, rr := range oc.rows {
				if g := stockLeft(rr.row, k); g > give {
					give, giveRow, givePick = g, rr.row, rr.idx
				}
			}
			if give > oc.budget {
				give = oc.budget
			}
			if give > remaining {
				give = remaining
			}
			if give <= 0 {
				return nil, fmt.Errorf("cycles: routed cycle for product %d does not pass a stocked row", k)
			}
			addLeg(oc, giveRow, givePick, k, give)
			remaining -= give
		}
	}
	// Drop cycles that ended up without legs (cannot happen today, but keep
	// the invariant Check expects).
	kept := cs.Cycles[:0]
	for _, c := range cs.Cycles {
		if len(c.Legs) > 0 {
			kept = append(kept, c)
		}
	}
	cs.Cycles = kept
	if errs := cs.Check(wl); len(errs) > 0 {
		return nil, fmt.Errorf("cycles: route packing produced an invalid cycle set: %v", errs[0])
	}
	return cs, nil
}

// zoneLast follows the chain of shelving-row components downstream from ri
// and returns the last row segment of the aisle, so a loop targeting it
// traverses the whole aisle.
func zoneLast(s *traffic.System, ri traffic.ComponentID) traffic.ComponentID {
	cur := ri
	for steps := 0; steps < s.NumComponents(); steps++ {
		next := traffic.ComponentID(-1)
		for _, out := range s.Outlets[cur] {
			if s.Components[out].Kind == traffic.ShelvingRow {
				next = out
				break
			}
		}
		if next < 0 {
			return cur
		}
		cur = next
	}
	return cur
}

// findLoop routes a closed loop over the rows and one station queue without
// consuming any capacity, returning an owned slice. Among the queues that
// admit a capacity-feasible loop, the one giving the shortest loop wins —
// locality keeps loops inside their own circulation stripe, which is what
// preserves corridor capacity for the remaining cycles. A failed probe
// leaves the residual capacities untouched, so Synthesize can try its
// candidate rows one after another against the same residual state.
func findLoop(s *traffic.System, rows []traffic.ComponentID, queues []traffic.ComponentID, residual []int, sc *Scratch) ([]traffic.ComponentID, error) {
	var best []traffic.ComponentID
	var lastErr error
	for _, q := range queues {
		if residual[q] <= 0 {
			continue
		}
		loop, err := routeLoop(s, rows, q, residual, sc)
		if err != nil {
			lastErr = err
			continue
		}
		// The loop must fit the residual capacities, one unit per occurrence.
		ok := true
		for _, comp := range loop {
			sc.count[comp]++
			if int(sc.count[comp]) > residual[comp] {
				ok = false
				break
			}
		}
		for _, comp := range loop {
			sc.count[comp] = 0
		}
		if !ok {
			lastErr = fmt.Errorf("cycles: loop revisits a component beyond its residual capacity")
			continue
		}
		if best == nil || len(loop) < len(best) {
			best = append(best[:0], loop...)
		}
	}
	if best == nil {
		if lastErr == nil {
			lastErr = fmt.Errorf("cycles: no station queue has residual capacity")
		}
		return nil, lastErr
	}
	return best, nil
}

// routeLoop routes waypoints rows[0] -> rows[1] -> ... -> queue -> rows[0]
// through Gs, using only components with residual capacity (waypoints
// included), and returns the loop with the final return to rows[0] omitted
// (the cycle wraps implicitly). The returned slice aliases sc.loop and is
// only valid until the next routeLoop call.
func routeLoop(s *traffic.System, rows []traffic.ComponentID, queue traffic.ComponentID, residual []int, sc *Scratch) ([]traffic.ComponentID, error) {
	loop := sc.loop[:0]
	prevWP := rows[0]
	for i := 0; i <= len(rows); i++ {
		nextWP := queue
		if i < len(rows)-1 {
			nextWP = rows[i+1]
		} else if i == len(rows) {
			nextWP = rows[0]
		}
		seg, err := bfsComponents(s, prevWP, nextWP, residual, sc)
		if err != nil {
			sc.loop = loop
			return nil, err
		}
		loop = append(loop, seg[:len(seg)-1]...) // drop the junction duplicate
		prevWP = nextWP
	}
	sc.loop = loop
	return loop, nil
}

// bfsComponents finds a shortest path from a to b in Gs restricted to
// components with positive residual capacity (a and b themselves must have
// capacity too). The returned slice aliases sc.path and is only valid until
// the next call.
func bfsComponents(s *traffic.System, a, b traffic.ComponentID, residual []int, sc *Scratch) ([]traffic.ComponentID, error) {
	if residual[a] <= 0 || residual[b] <= 0 {
		return nil, fmt.Errorf("cycles: waypoint %d or %d has no residual capacity", a, b)
	}
	if a == b {
		sc.path = append(sc.path[:0], a)
		return sc.path, nil
	}
	prev := sc.prev
	for i := range prev {
		prev[i] = -1
	}
	prev[a] = int32(a)
	queue := append(sc.queue[:0], a)
	defer func() { sc.queue = queue[:0] }()
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		for _, u := range s.Outlets[v] {
			if prev[u] >= 0 || residual[u] <= 0 {
				continue
			}
			prev[u] = int32(v)
			if u == b {
				path := sc.path[:0]
				for x := b; ; x = traffic.ComponentID(prev[x]) {
					path = append(path, x)
					if x == a {
						break
					}
				}
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				sc.path = path
				return path, nil
			}
			queue = append(queue, u)
		}
	}
	return nil, fmt.Errorf("cycles: no capacity-feasible route from component %d to %d", a, b)
}
