package flow

import (
	"context"
	"fmt"
	"math/big"

	"repro/internal/contracts"
	"repro/internal/lp"
	"repro/internal/traffic"
	"repro/internal/warehouse"
)

// Variable naming scheme shared by the contract compiler and the
// assignment-to-Set decoder. Product indices are zero-padded so the sorted
// variable order is stable and readable.
func flowVar(i, j traffic.ComponentID, k int) string { return fmt.Sprintf("f_%03d_%03d_%03d", i, j, k) }
func finVar(i traffic.ComponentID, k int) string     { return fmt.Sprintf("fin_%03d_%03d", i, k) }
func foutVar(i traffic.ComponentID, k int) string    { return fmt.Sprintf("fout_%03d_%03d", i, k) }

// CompileComponentContract builds the A/G contract C̃i of one traffic-system
// component per §IV-D. The flow variables it shares with its neighbors'
// contracts carry the same names, so composition connects them.
//
// The commodity index s.W.NumProducts denotes ρ0 (empty agents).
func CompileComponentContract(s *traffic.System, ci traffic.ComponentID, qc int) (*contracts.Contract, error) {
	w := s.W
	p := w.NumProducts
	empty := p
	comp := s.Components[ci]
	c := contracts.New(fmt.Sprintf("C%d(%s)", ci, comp.Kind))

	declare := func(name string) error { return c.DeclareVar(contracts.NatSpec(name)) }
	// Flow variables on every incident arc.
	for _, j := range s.Inlets[ci] {
		for k := 0; k <= p; k++ {
			if err := declare(flowVar(j, ci, k)); err != nil {
				return nil, err
			}
		}
	}
	for _, j := range s.Outlets[ci] {
		for k := 0; k <= p; k++ {
			if err := declare(flowVar(ci, j, k)); err != nil {
				return nil, err
			}
		}
	}
	isRow := comp.Kind == traffic.ShelvingRow
	isQueue := comp.Kind == traffic.StationQueue
	if isRow {
		for k := 0; k < p; k++ {
			if err := declare(finVar(ci, k)); err != nil {
				return nil, err
			}
		}
	}
	if isQueue {
		for k := 0; k < p; k++ {
			if err := declare(foutVar(ci, k)); err != nil {
				return nil, err
			}
		}
	}

	// Assumption: Σ_{j∈inlets} Σ_k f_{j,i,k} ≤ ⌊|Ci|/2⌋.
	var capTerms []contracts.LinTerm
	for _, j := range s.Inlets[ci] {
		for k := 0; k <= p; k++ {
			capTerms = append(capTerms, contracts.LT(1, flowVar(j, ci, k)))
		}
	}
	if err := c.Assume(contracts.CT(fmt.Sprintf("cap_%d", ci), lp.LE, int64(comp.Capacity()), capTerms...)); err != nil {
		return nil, err
	}

	// Guarantees.
	for k := 0; k <= p; k++ {
		// Conservation: Σ_out f = Σ_in f + fin - fout (product commodities);
		// Σ_out f0 = Σ_in f0 - Σ fin + Σ fout (empty commodity, sign erratum
		// in §IV-D corrected).
		var terms []contracts.LinTerm
		for _, j := range s.Outlets[ci] {
			terms = append(terms, contracts.LT(1, flowVar(ci, j, k)))
		}
		for _, j := range s.Inlets[ci] {
			terms = append(terms, contracts.LT(-1, flowVar(j, ci, k)))
		}
		if k < p {
			if isRow {
				terms = append(terms, contracts.LT(-1, finVar(ci, k)))
			}
			if isQueue {
				terms = append(terms, contracts.LT(1, foutVar(ci, k)))
			}
		} else {
			for kk := 0; kk < p; kk++ {
				if isRow {
					terms = append(terms, contracts.LT(1, finVar(ci, kk)))
				}
				if isQueue {
					terms = append(terms, contracts.LT(-1, foutVar(ci, kk)))
				}
			}
		}
		if err := c.Guarantee(contracts.CT(fmt.Sprintf("cons_%d_%d", ci, k), lp.EQ, 0, terms...)); err != nil {
			return nil, err
		}
	}
	if isQueue {
		// fout_{i,k} ≤ Σ_in f_{j,i,k}.
		for k := 0; k < p; k++ {
			terms := []contracts.LinTerm{contracts.LT(1, foutVar(ci, k))}
			for _, j := range s.Inlets[ci] {
				terms = append(terms, contracts.LT(-1, flowVar(j, ci, k)))
			}
			if err := c.Guarantee(contracts.CT(fmt.Sprintf("foutcap_%d_%d", ci, k), lp.LE, 0, terms...)); err != nil {
				return nil, err
			}
		}
	}
	if isRow {
		// fin_{i,k} ≤ UNITS_AT(Ci, ρk)/qc (rational bound, per the paper).
		for k := 0; k < p; k++ {
			units := s.UnitsAt(ci, warehouse.ProductID(k))
			bound := big.NewRat(int64(units), int64(qc))
			con := contracts.Constraint{
				Name:  fmt.Sprintf("fincap_%d_%d", ci, k),
				Terms: []contracts.LinTerm{contracts.LT(1, finVar(ci, k))},
				Sense: lp.LE,
				RHS:   bound,
			}
			if err := c.Guarantee(con); err != nil {
				return nil, err
			}
		}
		// Σ_k fin ≤ Σ_in f_{j,i,0}: pickups need unburdened agents.
		var terms []contracts.LinTerm
		for k := 0; k < p; k++ {
			terms = append(terms, contracts.LT(1, finVar(ci, k)))
		}
		for _, j := range s.Inlets[ci] {
			terms = append(terms, contracts.LT(-1, flowVar(j, ci, empty)))
		}
		if err := c.Guarantee(contracts.CT(fmt.Sprintf("finempty_%d", ci), lp.LE, 0, terms...)); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// CompileWorkloadContract builds C̃w: no assumptions; guarantees that the
// per-period drop-off rate of every product k is at least w_k / qeff.
func CompileWorkloadContract(s *traffic.System, wl warehouse.Workload, qeff int) (*contracts.Contract, error) {
	c := contracts.New("workload")
	queues := s.StationQueues()
	for k, want := range wl.Units {
		if want == 0 {
			continue
		}
		var terms []contracts.LinTerm
		for _, q := range queues {
			name := foutVar(q, k)
			if err := c.DeclareVar(contracts.NatSpec(name)); err != nil {
				return nil, err
			}
			terms = append(terms, contracts.LT(1, name))
		}
		if len(terms) == 0 {
			return nil, fmt.Errorf("flow: demand for product %d but no station queues", k)
		}
		con := contracts.Constraint{
			Name:  fmt.Sprintf("demand_%d", k),
			Terms: terms,
			Sense: lp.GE,
			RHS:   big.NewRat(int64(want), int64(qeff)),
		}
		if err := c.Guarantee(con); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// CompileSystemContract composes every component contract into the traffic
// system contract C̃TS (Fig. 3, red) with contracts.ComposeAllFast, the
// conjunctive composition: it keeps every assumption, so its satisfying set
// is exactly what synthesis and admission ask about.
func CompileSystemContract(s *traffic.System, qc int) (*contracts.Contract, error) {
	var cs []*contracts.Contract
	for _, comp := range s.Components {
		c, err := CompileComponentContract(s, comp.ID, qc)
		if err != nil {
			return nil, err
		}
		cs = append(cs, c)
	}
	return contracts.ComposeAllFast(cs)
}

// contractNodeBudget bounds the branch-and-bound tree per synthesis
// attempt. The faithful strategy targets small and mid-size instances,
// which decide within a handful of nodes; instances in the integer-rate
// regime (DESIGN.md) can be rationally feasible yet integrally infeasible,
// and proving that by branching alone is exponential — the budget converts
// such doomed searches into a prompt, deterministic failure.
const contractNodeBudget = 250

// contractWorkBudget bounds total simplex work per synthesis attempt, in
// the solver's deterministic row-update units. Nodes alone do not bound
// latency on large tableaus (a warm reentry of a feasibility relaxation
// can wander arbitrarily, and pivot cost grows with fill-in), so the
// budget scales with the tableau footprint: the cold root solve costs on
// the order of 150× rows×cols at contract sizes, leaving a few root-solves
// worth of slack before the search is declared undecided. The constant
// floor keeps small instances effectively unbudgeted.
func contractWorkBudget(goal *contracts.Contract) int64 {
	rows := int64(len(goal.Assumptions) + len(goal.Guarantees))
	cols := int64(len(goal.Vars)) + 2*rows + 1
	return 10_000_000 + 500*rows*cols
}

// synthesisILPOptions resolves the branch-and-bound budgets for one
// contract synthesis attempt: the caller's Limits where set, the package
// defaults otherwise, plus the context's cancellation channel. It is the
// one place lp.Limits becomes lp.ILPOptions.
func synthesisILPOptions(ctx context.Context, goal *contracts.Contract, opts Options) lp.ILPOptions {
	engine := lp.EngineFloat
	if opts.Exact {
		engine = lp.EngineExact
	}
	maxNodes := opts.MaxNodes
	if maxNodes == 0 {
		maxNodes = contractNodeBudget
	}
	maxWork := opts.MaxWork
	if maxWork == 0 {
		maxWork = contractWorkBudget(goal)
	}
	return lp.ILPOptions{
		Engine:   engine,
		MaxNodes: maxNodes,
		MaxWork:  maxWork,
		Cancel:   cancelOf(ctx),
	}
}

// cancelOf extracts a context's cancellation channel, tolerating nil.
func cancelOf(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// SynthesizeContract is the faithful §IV-D pipeline: compile C̃TS ⊗-composed
// from component contracts, conjoin with C̃w, and search for a satisfying
// integer assignment with the ILP solver (the Z3 substitute). The assignment
// is decoded into a Set and exactly re-checked. Cancelling ctx aborts the
// ILP search within one work-budget tick (the error wraps lp.ErrCanceled);
// an uncancelled solve is bit-identical to one with a background context.
//
// Complexity grows with |Es| × |ρ|; use SynthesizeSequential for the
// paper-scale instances (the ablation bench compares both).
func SynthesizeContract(ctx context.Context, s *traffic.System, wl warehouse.Workload, T int, opts Options) (*Set, error) {
	margin := opts.WarmupMargin
	if margin == 0 {
		margin = autoMargin(s, T)
	}
	tc, qc, qeff, err := periods(s, T, margin)
	if err != nil {
		return nil, err
	}
	cts, err := CompileSystemContract(s, qc)
	if err != nil {
		return nil, err
	}
	cw, err := CompileWorkloadContract(s, wl, qeff)
	if err != nil {
		return nil, err
	}
	goal, err := contracts.Conjoin(cts, cw)
	if err != nil {
		return nil, err
	}
	asn, err := goal.SatisfyOpts(synthesisILPOptions(ctx, goal, opts))
	if err != nil {
		return nil, err
	}
	if asn == nil {
		return nil, &InfeasibleError{Cert: CertMaybeFeasible, Horizon: T, Reason: "contract conjunction unsatisfiable"}
	}
	return decodeSet(s, wl, tc, qc, qeff, asn)
}

// decodeSet turns a satisfying assignment of the contract conjunction into
// a verified flow Set — the back half of SynthesizeContract, shared with
// the incremental ContractModel path.
func decodeSet(s *traffic.System, wl warehouse.Workload, tc, qc, qeff int, asn contracts.Assignment) (*Set, error) {
	set := newSet(s, tc, qc, qeff)
	decode := func(name string) int {
		if r, ok := asn[name]; ok {
			return lp.MustInt(r)
		}
		return 0
	}
	p := s.W.NumProducts
	for e, edge := range set.Edges {
		for k := 0; k <= p; k++ {
			set.F[e][k] = decode(flowVar(edge[0], edge[1], k))
		}
	}
	for _, comp := range s.Components {
		for k := 0; k < p; k++ {
			set.Fin[comp.ID][k] = decode(finVar(comp.ID, k))
			set.Fout[comp.ID][k] = decode(foutVar(comp.ID, k))
		}
	}
	assignQuotas(set, wl)
	if errs := set.Check(wl); len(errs) > 0 {
		return nil, fmt.Errorf("flow: contract synthesis produced an invalid set: %w", errs[0])
	}
	return set, nil
}

// VerifyContracts re-checks a synthesized Set against the compiled contract
// system by substituting its values into every assumption and guarantee.
func VerifyContracts(set *Set, wl warehouse.Workload) error {
	cts, err := CompileSystemContract(set.S, set.Qc)
	if err != nil {
		return err
	}
	cw, err := CompileWorkloadContract(set.S, wl, set.QEff)
	if err != nil {
		return err
	}
	goal, err := contracts.Conjoin(cts, cw)
	if err != nil {
		return err
	}
	p, index := goal.ToProblem()
	values := make([]*big.Rat, p.NumVars())
	for name, id := range index {
		values[id] = big.NewRat(int64(lookupVar(set, name)), 1)
	}
	return p.Check(values)
}

// lookupVar resolves a contract variable name to its value in the Set.
func lookupVar(set *Set, name string) int {
	var i, j, k int
	if n, _ := fmt.Sscanf(name, "f_%d_%d_%d", &i, &j, &k); n == 3 {
		e := set.EdgeIndex(traffic.ComponentID(i), traffic.ComponentID(j))
		if e < 0 {
			return 0
		}
		return set.F[e][k]
	}
	if n, _ := fmt.Sscanf(name, "fin_%d_%d", &i, &k); n == 2 {
		return set.Fin[i][k]
	}
	if n, _ := fmt.Sscanf(name, "fout_%d_%d", &i, &k); n == 2 {
		return set.Fout[i][k]
	}
	return 0
}

// assignQuotas distributes the workload demand over shelving rows with
// positive pick rate, bounded by each row's stock.
func assignQuotas(set *Set, wl warehouse.Workload) {
	s := set.S
	for k, want := range wl.Units {
		remaining := want
		for _, ri := range s.ShelvingRows() {
			if remaining == 0 {
				break
			}
			if set.Fin[ri][k] == 0 {
				continue
			}
			give := s.UnitsAt(ri, warehouse.ProductID(k))
			if give > remaining {
				give = remaining
			}
			set.Quota[ri][k] = give
			remaining -= give
		}
		// If rated rows lack stock for the whole demand (possible when the
		// same row feeds several products), spill to any stocked row.
		for _, ri := range s.ShelvingRows() {
			if remaining == 0 {
				break
			}
			have := s.UnitsAt(ri, warehouse.ProductID(k)) - set.Quota[ri][k]
			if have <= 0 {
				continue
			}
			if have > remaining {
				have = remaining
			}
			set.Quota[ri][k] += have
			remaining -= have
		}
	}
}

// Options tunes synthesis.
type Options struct {
	// WarmupMargin reserves cycle periods for realization warm-up: flows are
	// sized to service the workload in qc - WarmupMargin periods. Zero means
	// an automatic margin of the longest plausible cycle (the number of
	// components) capped at qc/2.
	WarmupMargin int
	// Limits configures the contract path's ILP: Exact selects the exact
	// rational engine, and a zero MaxNodes or MaxWork selects the package
	// default (contractNodeBudget, or contractWorkBudget scaled to the
	// tableau footprint). Exhaustion wraps lp.ErrBudgetExhausted.
	lp.Limits
}

// autoMargin picks a warm-up margin when the caller did not: enough periods
// for an agent to finish one revolution of a cycle touching every component
// once, capped at half the budget.
func autoMargin(s *traffic.System, T int) int {
	tc := s.CycleTime()
	if tc == 0 {
		return 0
	}
	qc := T / tc
	m := s.NumComponents()
	if m > qc/2 {
		m = qc / 2
	}
	return m
}
