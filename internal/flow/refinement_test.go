package flow

import (
	"testing"

	"repro/internal/contracts"
	"repro/internal/lp"
	"repro/internal/traffic"
)

// TestComponentContractRefinesRoadContract checks that every compiled
// component contract refines the generic "safe road" contract for its
// component, which assumes the same capacity bound and guarantees only that
// the component creates no agents: Σ_out f ≤ Σ_in f (pickups turn empty
// agents into carrying ones 1:1, so they do not change the total). The
// assumptions are the same, so refinement is the entailment of that
// guarantee, asked as a feasibility query: the component contract conjoined
// with its negation, Σ_out f − Σ_in f ≥ 1, must have no integral solution.
func TestComponentContractRefinesRoadContract(t *testing.T) {
	_, s := ringSystem(t)
	qc := 10
	for _, comp := range s.Components {
		cc, err := CompileComponentContract(s, comp.ID, qc)
		if err != nil {
			t.Fatal(err)
		}
		if err := cc.Guarantee(contracts.CT("creation", lp.GE, 1, netOutflow(s, comp.ID)...)); err != nil {
			t.Fatal(err)
		}
		asn, err := cc.Compile().Satisfy(lp.ILPOptions{Engine: lp.EngineExact})
		if err != nil {
			t.Fatalf("component %d: %v", comp.ID, err)
		}
		if asn != nil {
			t.Errorf("component %d (%v) creates agents: %v", comp.ID, comp.Kind, asn)
		}
	}
}

// netOutflow returns the terms of Σ_out f − Σ_in f over every commodity.
func netOutflow(s *traffic.System, ci traffic.ComponentID) []contracts.LinTerm {
	p := s.W.NumProducts
	var terms []contracts.LinTerm
	for _, j := range s.Outlets[ci] {
		for k := 0; k <= p; k++ {
			terms = append(terms, contracts.LT(1, flowVarName(ci, j, k)))
		}
	}
	for _, j := range s.Inlets[ci] {
		for k := 0; k <= p; k++ {
			terms = append(terms, contracts.LT(-1, flowVarName(j, ci, k)))
		}
	}
	return terms
}

// flowVarName mirrors the unexported naming scheme (kept in sync by the
// compiler tests).
func flowVarName(i, j traffic.ComponentID, k int) string { return flowVar(i, j, k) }
