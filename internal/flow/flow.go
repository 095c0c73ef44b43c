// Package flow implements agent-flow-set synthesis (§IV-D): the per-period
// flow rates f_{i,j,k} of agents moving between traffic-system components
// while carrying each product (or nothing), together with the pickup rates
// fin and drop-off rates fout.
//
// Two synthesis strategies are provided:
//
//   - Contract: the faithful path. Component contracts and the workload
//     contract are compiled (per the equations of §IV-D), composed, conjoined
//     and handed to the ILP solver, which is asked only whether an integral
//     assignment satisfies the conjunction — the paper's CHASE + Z3 pipeline
//     with internal/contracts + internal/lp substituted. ContractModel runs
//     it in production, re-solving a retained compilation; the
//     from-scratch SynthesizeContract is the reference its tests hold it
//     to.
//   - Sequential: the scalable path. Each product's flow is the projection
//     of the same contract system onto one commodity, which is a
//     single-commodity network-flow problem and is solved exactly by
//     min-cost flow on the shared residual capacities; the empty-agent
//     return flow is balanced the same way. This decomposition solves the
//     instances of Table I at the paper's scale.
//
// Every synthesized Set, regardless of strategy, can be checked against the
// compiled contracts with VerifyContracts, the independent check the
// strategies' tests apply.
package flow

import (
	"fmt"

	"repro/internal/traffic"
	"repro/internal/warehouse"
)

// Set is an agent flow set F for a traffic system: steady-state per-period
// flow rates, plus the total pick quotas that bound actual execution.
type Set struct {
	S *traffic.System
	// Tc is the cycle time (2m, Property 4.1).
	Tc int
	// Qc is the number of cycle periods executable in the T-timestep budget
	// (⌊T/tc⌋; the paper's qc with its tc/T typo corrected).
	Qc int
	// QEff is the number of periods the synthesis sized flows for; it is at
	// most Qc and leaves headroom for the realization warm-up (agents start
	// empty and mid-cycle).
	QEff int

	// Edges lists Es in the same order as S.Edges().
	Edges [][2]traffic.ComponentID
	// F[e][k] is f_{i,j,k}: agents moving along Edges[e] carrying product k
	// each period. Index k = NumProducts holds the empty commodity ρ0.
	F [][]int
	// Fin[i][k] is the pickup rate of product k at component i per period.
	Fin [][]int
	// Fout[i][k] is the station drop-off rate of product k at component i.
	Fout [][]int
	// Quota[i][k] is the total number of units of product k that execution
	// may pick up at component i over the whole plan (bounded by stock).
	Quota [][]int
}

// EmptyIndex returns the commodity index of ρ0 within F.
func (f *Set) EmptyIndex() int { return f.S.W.NumProducts }

// newSet allocates a zeroed flow set for the system.
func newSet(s *traffic.System, tc, qc, qeff int) *Set {
	n := s.NumComponents()
	p := s.W.NumProducts
	set := &Set{
		S:     s,
		Tc:    tc,
		Qc:    qc,
		QEff:  qeff,
		Edges: s.Edges(),
		Fin:   make([][]int, n),
		Fout:  make([][]int, n),
		Quota: make([][]int, n),
	}
	// One backing array per matrix keeps the per-edge and per-component rows
	// contiguous in memory.
	fBack := make([]int, len(set.Edges)*(p+1))
	set.F = make([][]int, len(set.Edges))
	for e := range set.Edges {
		set.F[e] = fBack[e*(p+1) : (e+1)*(p+1) : (e+1)*(p+1)]
	}
	ioBack := make([]int, 3*n*p)
	for i := 0; i < n; i++ {
		set.Fin[i] = ioBack[i*p : (i+1)*p : (i+1)*p]
		set.Fout[i] = ioBack[(n+i)*p : (n+i+1)*p : (n+i+1)*p]
		set.Quota[i] = ioBack[(2*n+i)*p : (2*n+i+1)*p : (2*n+i+1)*p]
	}
	return set
}

// EdgeIndex returns the index of arc (i, j) in Edges, or -1. Edges share the
// traffic system's contiguous arc numbering, so this is a constant-time
// degree-bounded scan rather than a map lookup.
func (f *Set) EdgeIndex(i, j traffic.ComponentID) int {
	return f.S.EdgeID(i, j)
}

// EnteringTotal returns the total agent flow entering component i per
// period, summed over all commodities.
func (f *Set) EnteringTotal(i traffic.ComponentID) int {
	total := 0
	for _, e := range f.S.InEdgeIDs(i) {
		for _, v := range f.F[e] {
			total += v
		}
	}
	return total
}

// Check verifies the flow set against the §IV-D constraint system using
// exact integer arithmetic: capacity, conservation per commodity, fin/fout
// placement and bounds, and the workload demand. It returns every violation.
func (f *Set) Check(wl warehouse.Workload) []error {
	var errs []error
	s := f.S
	p := s.W.NumProducts
	empty := f.EmptyIndex()

	for _, c := range s.Components {
		i := c.ID
		// Capacity: Σ_inlets Σ_k f ≤ ⌊|Ci|/2⌋.
		if got := f.EnteringTotal(i); got > c.Capacity() {
			errs = append(errs, fmt.Errorf("flow: component %d intake %d exceeds capacity %d", i, got, c.Capacity()))
		}
		inFlow := make([]int, p+1)
		outFlow := make([]int, p+1)
		for _, e := range s.InEdgeIDs(i) {
			for k, v := range f.F[e] {
				if v < 0 {
					errs = append(errs, fmt.Errorf("flow: negative flow on edge %v commodity %d", f.Edges[e], k))
				}
				inFlow[k] += v
			}
		}
		for _, e := range s.OutEdgeIDs(i) {
			for k, v := range f.F[e] {
				outFlow[k] += v
			}
		}
		sumFin, sumFout := 0, 0
		for k := 0; k < p; k++ {
			fin, fout := f.Fin[i][k], f.Fout[i][k]
			if fin < 0 || fout < 0 {
				errs = append(errs, fmt.Errorf("flow: negative fin/fout at component %d product %d", i, k))
			}
			sumFin += fin
			sumFout += fout
			if fin > 0 && c.Kind != traffic.ShelvingRow {
				errs = append(errs, fmt.Errorf("flow: fin %d at non-shelving component %d", fin, i))
			}
			if fout > 0 && c.Kind != traffic.StationQueue {
				errs = append(errs, fmt.Errorf("flow: fout %d at non-station component %d", fout, i))
			}
			if fout > inFlow[k] {
				errs = append(errs, fmt.Errorf("flow: fout %d exceeds product-%d inflow %d at component %d", fout, k, inFlow[k], i))
			}
			// Total pick bound: quota ≤ stock; steady rate must be coverable.
			if q := f.Quota[i][k]; q > s.UnitsAt(i, warehouse.ProductID(k)) {
				errs = append(errs, fmt.Errorf("flow: quota %d exceeds stock %d at component %d product %d", q, s.UnitsAt(i, warehouse.ProductID(k)), i, k))
			}
			// Conservation for product k.
			if outFlow[k] != inFlow[k]+fin-fout {
				errs = append(errs, fmt.Errorf("flow: product %d conservation broken at component %d: out %d != in %d + fin %d - fout %d",
					k, i, outFlow[k], inFlow[k], fin, fout))
			}
		}
		// Pickups need unburdened agents.
		if sumFin > inFlow[empty] {
			errs = append(errs, fmt.Errorf("flow: Σfin %d exceeds empty inflow %d at component %d", sumFin, inFlow[empty], i))
		}
		// Conservation for ρ0 (paper's equation with the sign erratum fixed:
		// picking up removes an agent from the empty commodity).
		if outFlow[empty] != inFlow[empty]-sumFin+sumFout {
			errs = append(errs, fmt.Errorf("flow: empty conservation broken at component %d: out %d != in %d - Σfin %d + Σfout %d",
				i, outFlow[empty], inFlow[empty], sumFin, sumFout))
		}
	}
	// Workload: per-period drop-off rates must service w within QEff periods,
	// and quotas must cover the demand.
	for k, want := range wl.Units {
		rate, quota := 0, 0
		for i := range f.Fout {
			rate += f.Fout[i][k]
			quota += f.Quota[i][k]
		}
		if rate*f.QEff < want {
			errs = append(errs, fmt.Errorf("flow: product %d rate %d over %d periods cannot service demand %d", k, rate, f.QEff, want))
		}
		if quota < want {
			errs = append(errs, fmt.Errorf("flow: product %d quota %d below demand %d", k, quota, want))
		}
	}
	return errs
}

// periods computes tc, qc and qeff for a horizon T. margin is the number of
// warm-up periods reserved for the realization (agents start empty and
// mid-cycle); it is clamped so qeff stays positive.
func periods(s *traffic.System, T, margin int) (tc, qc, qeff int, err error) {
	tc = s.CycleTime()
	if tc <= 0 {
		return 0, 0, 0, fmt.Errorf("flow: traffic system has zero cycle time")
	}
	qc = T / tc
	if qc < 1 {
		return 0, 0, 0, fmt.Errorf("flow: horizon %d below cycle period %d: %w", T, tc, ErrHorizonTooShort)
	}
	qeff = qc - margin
	if qeff < 1 {
		qeff = 1
	}
	return tc, qc, qeff, nil
}
