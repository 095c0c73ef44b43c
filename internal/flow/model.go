package flow

import (
	"context"
	"fmt"
	"math/big"
	"slices"

	"repro/internal/contracts"
	"repro/internal/lp"
	"repro/internal/traffic"
	"repro/internal/warehouse"
)

// ContractModel caches the compiled §IV-D contract machinery of one
// traffic-system shape and re-targets it across solves instead of
// recompiling: component contracts are cached per (component, qc), the
// ⊗-composition is cached per structure, and the conjunction with the
// workload contract lives in a persistent contracts.Compiled whose
// fincap/demand right-hand sides are rewritten per solve. Everything the
// horizon (qc, qeff), the workload vector, or shelf stock can change enters
// the ILP only through those right-hand sides, so refinement probes,
// lifelong epochs, and design-sweep evaluations differ from their
// predecessor by a handful of SetRHSAt edits plus a re-solve in the retained
// arena.
//
// Synthesize and Admit are bit-identical to SynthesizeContract and Admit on
// the same inputs: the cached compilation is structurally equal to a fresh
// one (same variable and constraint order), the re-targeted right-hand
// sides are recomputed from the current system and workload, and the lp
// layer guarantees incremental solves match from-scratch ones.
//
// A ContractModel is not safe for concurrent use; keep one per solver-pool
// worker (core.Scratch does exactly that).
type ContractModel struct {
	sig string // traffic.StructureSignature of the cached compilation

	// ⊗-composition of the per-component contracts, valid for (sig,
	// compQC) — the (component, qc) compilation cache: identical component
	// contracts are no longer recompiled on every synthesis retry or
	// lifelong epoch. The qc key keeps the cached contracts valid in their
	// own right (their baked fincap RHS match their key); the compiled
	// conjunction below deliberately does NOT carry the key, because
	// target rewrites every fincap/demand RHS before solving — which is
	// also why the cache survives stock depletion across epochs.
	compQC int
	cts    *contracts.Contract

	support []bool // products with a demand row in the compiled conjunction
	cc      *contracts.Compiled

	// Row indices of the retargeted constraints, resolved once per compile
	// so the per-solve retarget loop is index arithmetic, not string
	// formatting: fincapRows is ShelvingRows-order × products, demandRows
	// per product (-1 when the product has no demand row).
	fincapRows []int
	demandRows []int

	// lastSys short-circuits the signature recompute for the common case of
	// many solves on one System pointer (refinement probes, sweep series).
	lastSys *traffic.System
}

// target makes the compiled conjunction current for (s, wl, qc, qeff):
// reusing every cached layer whose key still matches, recompiling the rest,
// then rewriting the horizon-, stock- and workload-dependent right-hand
// sides. It returns the goal contract (for budget sizing).
func (cm *ContractModel) target(s *traffic.System, wl warehouse.Workload, qc, qeff int) (*contracts.Contract, error) {
	if s != cm.lastSys {
		if sig := s.StructureSignature(); sig != cm.sig {
			cm.sig = sig
			cm.cts, cm.cc, cm.support = nil, nil, nil
		}
		cm.lastSys = s
	}
	support := make([]bool, len(wl.Units))
	for k, want := range wl.Units {
		support[k] = want > 0
	}
	if cm.cc == nil || !slices.Equal(cm.support, support) {
		if cm.cts == nil || cm.compQC != qc {
			cts, err := CompileSystemContract(s, qc)
			if err != nil {
				return nil, err
			}
			cm.compQC, cm.cts = qc, cts
		}
		cw, err := CompileWorkloadContract(s, wl, qeff)
		if err != nil {
			return nil, err
		}
		goal, err := contracts.Conjoin(cm.cts, cw)
		if err != nil {
			return nil, err
		}
		cc := goal.Compile()
		fincapRows, demandRows, err := resolveRows(s, cc, support)
		if err != nil {
			// Leave the cache untouched: installing any piece of the new
			// compilation here would make the next (cache-hitting) call
			// retarget rows of the wrong model instead of re-reporting this.
			return nil, err
		}
		cm.cc, cm.support = cc, support
		cm.fincapRows, cm.demandRows = fincapRows, demandRows
	}
	// Retarget: fincap_{i,k} ≤ UNITS_AT(Ci, ρk)/qc on every shelving row,
	// demand_k ≥ w_k/qeff for every demanded product — by pre-resolved row
	// index, since these are the same rows every solve.
	p := s.W.NumProducts
	at := 0
	for _, ci := range s.ShelvingRows() {
		for k := 0; k < p; k++ {
			units := s.UnitsAt(ci, warehouse.ProductID(k))
			cm.cc.SetRHSAt(cm.fincapRows[at], big.NewRat(int64(units), int64(qc)))
			at++
		}
	}
	for k, want := range wl.Units {
		if want == 0 {
			continue
		}
		cm.cc.SetRHSAt(cm.demandRows[k], big.NewRat(int64(want), int64(qeff)))
	}
	return cm.cc.Contract, nil
}

// resolveRows resolves the row indices of every retargeted constraint of a
// freshly compiled conjunction.
func resolveRows(s *traffic.System, cc *contracts.Compiled, support []bool) (fincapRows, demandRows []int, err error) {
	p := s.W.NumProducts
	for _, ci := range s.ShelvingRows() {
		for k := 0; k < p; k++ {
			name := fmt.Sprintf("fincap_%d_%d", ci, k)
			row, ok := cc.Row(name)
			if !ok {
				return nil, nil, fmt.Errorf("flow: compiled conjunction lacks %s", name)
			}
			fincapRows = append(fincapRows, row)
		}
	}
	for k := 0; k < p; k++ {
		if !support[k] {
			demandRows = append(demandRows, -1)
			continue
		}
		name := fmt.Sprintf("demand_%d", k)
		row, ok := cc.Row(name)
		if !ok {
			return nil, nil, fmt.Errorf("flow: compiled conjunction lacks %s", name)
		}
		demandRows = append(demandRows, row)
	}
	return fincapRows, demandRows, nil
}

// Synthesize is the model-reusing variant of SynthesizeContract: identical
// inputs produce a bit-identical Set, with compilation amortized across
// calls that share the traffic-system shape. Cancelling ctx aborts the ILP
// search within one work-budget tick; the retained model stays valid and
// serves the next solve cold.
func (cm *ContractModel) Synthesize(ctx context.Context, s *traffic.System, wl warehouse.Workload, T int, opts Options) (*Set, error) {
	margin := opts.WarmupMargin
	if margin == 0 {
		margin = autoMargin(s, T)
	}
	tc, qc, qeff, err := periods(s, T, margin)
	if err != nil {
		return nil, err
	}
	goal, err := cm.target(s, wl, qc, qeff)
	if err != nil {
		return nil, err
	}
	asn, err := cm.cc.Satisfy(synthesisILPOptions(ctx, goal, opts))
	if err != nil {
		return nil, err
	}
	if asn == nil {
		return nil, &InfeasibleError{Cert: CertMaybeFeasible, Horizon: T, Reason: "contract conjunction unsatisfiable"}
	}
	return decodeSet(s, wl, tc, qc, qeff, asn)
}

// Admit is the model-reusing variant of the package-level Admit: the same
// certificate and the same budget policy (no work budget; only ctx
// cancellation stops the LP early), decided by a cold LP solve in the
// retained model, which saves the compilation and the arena build.
func (cm *ContractModel) Admit(ctx context.Context, s *traffic.System, wl warehouse.Workload, T int, opts Options) (Certificate, error) {
	margin := opts.WarmupMargin
	if margin == 0 {
		margin = autoMargin(s, T)
	}
	_, qc, qeff, err := periods(s, T, margin)
	if err != nil {
		if wl.TotalUnits() > 0 {
			return CertInfeasible, nil
		}
		return CertMaybeFeasible, nil
	}
	if _, err := cm.target(s, wl, qc, qeff); err != nil {
		return CertMaybeFeasible, err
	}
	feasible, err := cm.cc.RelaxationFeasibleOpts(lp.SolveOptions{Cancel: cancelOf(ctx)})
	if err != nil {
		return CertMaybeFeasible, err
	}
	if !feasible {
		return CertInfeasible, nil
	}
	return CertMaybeFeasible, nil
}

// MustAdmit wraps Admit into an error for pipeline use: a CertInfeasible
// verdict becomes an *InfeasibleError carrying the certificate.
func (cm *ContractModel) MustAdmit(ctx context.Context, s *traffic.System, wl warehouse.Workload, T int, opts Options) error {
	cert, err := cm.Admit(ctx, s, wl, T, opts)
	if err != nil {
		return err
	}
	if cert == CertInfeasible {
		return &InfeasibleError{Cert: CertInfeasible, Horizon: T, Reason: "LP certificate"}
	}
	return nil
}
