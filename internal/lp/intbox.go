package lp

import "math/big"

// integerBox guards branch and bound against one-sided integer domains.
//
// An integer variable with an open bound side lets the branching chain walk
// that direction forever when the instance is integer-infeasible but its
// relaxations stay feasible (the historical pathology of edit-corpus seed
// 1376). Yet one-sided declarations are the norm here: every agent flow is
// an integer variable over [0, ∞), and the finite upper bound is implied by
// the capacity rows rather than declared. integerBox recovers those implied
// bounds by activity-based propagation over the constraint rows and returns
// them as a root bound-diff chain for the search to branch under.
//
// Every derived bound is implied by the constraints, so installing it
// never changes the feasible set. It can, however, participate in simplex
// ratio tests, so on instances that reach the slow path the search may
// surface a different feasible vertex than a hypothetical box-free run —
// which is fine, because without the box that run might not terminate at
// all. Fully boxed problems take the nil fast path and are untouched, bit
// for bit.
//
// A side the propagation cannot derive stays open rather than failing the
// solve: an unbounded feasible region is still a feasible one (a
// relaxation whose first point is integral decides before any branching,
// and variables outside every row never branch at all). The
// runaway-branching case those open sides could still cause is rejected
// lazily, inside the search, by its open-march guard
// (ErrUnboundedIntDomain) — so the a-priori box plus the in-search guard
// together make every solve terminate.
//
// Like the simplex engines, the propagation runs on rat64 machine words
// first and re-runs over big.Rat only if a value overflows int64 (contract
// coefficients never do in practice). Both paths are exact, so the derived
// chain is identical either way.
func integerBox(p *Problem) *boundDiff {
	need := false
	for _, v := range p.Vars {
		if v.Integer && (v.Lower == nil || v.Upper == nil) {
			need = true
			break
		}
	}
	if !need {
		return nil
	}
	var chain *boundDiff
	if promote(func() { chain = boxPropagate[rat64, rat64Arith](p, rat64Arith{}) }) {
		return chain
	}
	return boxPropagate[*big.Rat, ratArith](p, ratArith{})
}

// boxPropagate runs the activity-propagation rounds under the arithmetic A
// and returns the derived chain. Each round scans every row in both senses
// and fills missing bound sides (for all variables — a derived continuous
// bound can unlock an integer one next round). Declared or previously
// derived bounds are never replaced, so the state is monotone; a few rounds
// reach everything reachable on real instances, and the fixed cap keeps the
// guard O(rounds · nnz) even on adversarial chains. This runs at the root
// of every B&B, so rowFill prefilters each row with bound-presence checks
// alone and touches arithmetic only when the row can actually fill a
// missing side.
func boxPropagate[T any, A arith[T]](p *Problem, ar A) *boundDiff {
	nv := len(p.Vars)
	lo, hi := make([]T, nv), make([]T, nv)
	loOK, hiOK := make([]bool, nv), make([]bool, nv)
	for i, v := range p.Vars {
		if v.Lower != nil {
			lo[i], loOK[i] = ar.fromRat(v.Lower), true
		}
		if v.Upper != nil {
			hi[i], hiOK[i] = ar.fromRat(v.Upper), true
		}
	}
	sc := &boxScratch[T]{}
	for round := 0; round < 4; round++ {
		changed := false
		for ci := range p.Constraints {
			c := &p.Constraints[ci]
			if c.Sense == LE || c.Sense == EQ {
				changed = rowFill(ar, c, false, lo, hi, loOK, hiOK, sc) || changed
			}
			if c.Sense == GE || c.Sense == EQ {
				changed = rowFill(ar, c, true, lo, hi, loOK, hiOK, sc) || changed
			}
		}
		if !changed {
			break
		}
	}
	var chain *boundDiff
	for i, v := range p.Vars {
		if !v.Integer {
			continue
		}
		if v.Lower == nil && loOK[i] {
			chain = chain.push(i, false, boxChainVal(ar, lo[i], false))
		}
		if v.Upper == nil && hiOK[i] {
			chain = chain.push(i, true, boxChainVal(ar, hi[i], true))
		}
	}
	return chain
}

// boxChainVal rounds a derived bound to the integral *big.Rat the chain
// stores: floor for an upper bound, ceil for a lower one. The rat64 case is
// a single int64 division — going through toRat would make SetFrac64's GCD
// normalization and big.Int flooring dominate the whole propagation on
// boxed-flow instances, where nearly every variable receives a bound.
func boxChainVal[T any, A arith[T]](ar A, v T, upper bool) *big.Rat {
	if x, ok := any(v).(rat64); ok {
		q := x.n / x.d // d > 0 by invariant; Go division truncates toward zero
		if x.n%x.d != 0 {
			if upper {
				if x.n < 0 {
					q--
				}
			} else if x.n > 0 {
				q++
			}
		}
		return new(big.Rat).SetInt64(q)
	}
	r := ar.toRat(v)
	if upper {
		return ratFloor(r)
	}
	return ratCeil(r)
}

// boxScratch recycles rowFill's per-row contribution buffer across the
// whole propagation. Under rat64 the values are machine words and the rest
// of the pass is allocation-free; the big.Rat fallback allocates per
// operation, which is fine for a path taken only on int64 overflow.
type boxScratch[T any] struct {
	contrib []T // finite contribution per term (valid[i] says which)
	valid   []bool
}

// rowFill derives missing variable bounds from one row read as
// Σ aⱼxⱼ ≤ b (neg flips every coefficient and the RHS first, which turns a
// GE row into the same form; an EQ row is processed once per direction).
// For any feasible point, aⱼxⱼ ≤ b − Σ_{k≠j} aₖxₖ ≤ b − minactivity_{−j},
// where each term's minimum contribution is aₖ·loₖ (aₖ > 0) or aₖ·hiₖ
// (aₖ < 0) — infinite when the needed bound is missing. With two or more
// infinite contributions nothing is derivable; with exactly one, only the
// variable contributing it has a finite residual; with none, every
// variable does. Derived bounds only FILL missing sides, never tighten
// declared ones. Reports whether any side was filled.
//
// The first pass over the terms costs only sign and presence checks: it
// counts infinite contributions and looks for a fillable target side,
// bailing out before any arithmetic when the row cannot derive anything —
// which is the overwhelmingly common case after the first round.
func rowFill[T any, A arith[T]](ar A, c *Constraint, neg bool, lo, hi []T, loOK, hiOK []bool, sc *boxScratch[T]) bool {
	infs, infAt := 0, -1
	fillable := false
	for ti, t := range c.Terms {
		sign := t.Coef.Sign()
		if neg {
			sign = -sign
		}
		if sign == 0 {
			continue
		}
		needOK, targetOK := loOK[t.Var], hiOK[t.Var]
		if sign < 0 {
			needOK, targetOK = targetOK, needOK
		}
		if !needOK {
			infs++
			infAt = ti
			if infs > 1 {
				return false
			}
			// With one infinite contribution only its own term can
			// receive a bound, so earlier fillable targets are moot.
			fillable = !targetOK
			continue
		}
		if infs == 0 && !targetOK {
			fillable = true
		}
	}
	if !fillable {
		return false
	}
	if cap(sc.contrib) < len(c.Terms) {
		sc.contrib = make([]T, len(c.Terms))
		sc.valid = make([]bool, len(c.Terms))
	}
	contrib, valid := sc.contrib[:len(c.Terms)], sc.valid[:len(c.Terms)]
	sumFin := ar.zero()
	for ti, t := range c.Terms {
		sign := t.Coef.Sign()
		if neg {
			sign = -sign
		}
		valid[ti] = false
		if sign == 0 || ti == infAt {
			continue
		}
		b := lo[t.Var]
		if sign < 0 {
			b = hi[t.Var]
		}
		cv := ar.mul(ar.fromRat(t.Coef), b)
		if neg {
			cv = ar.neg(cv)
		}
		contrib[ti] = cv
		valid[ti] = true
		sumFin = ar.add(sumFin, cv)
	}
	rhs := ar.fromRat(c.RHS)
	if neg {
		rhs = ar.neg(rhs)
	}
	changed := false
	for ti, t := range c.Terms {
		sign := t.Coef.Sign()
		if neg {
			sign = -sign
		}
		if sign == 0 || (infs == 1 && ti != infAt) {
			continue
		}
		j := t.Var
		if sign > 0 {
			if hiOK[j] {
				continue
			}
		} else if loOK[j] {
			continue
		}
		rest := sumFin
		if valid[ti] {
			rest = ar.sub(rest, contrib[ti])
		}
		aj := ar.fromRat(t.Coef)
		if neg {
			aj = ar.neg(aj)
		}
		val := ar.div(ar.sub(rhs, rest), aj)
		if sign > 0 {
			hi[j], hiOK[j] = val, true
		} else {
			lo[j], loOK[j] = val, true
		}
		changed = true
	}
	return changed
}

// ratCeil returns ⌈r⌉ as a rational.
func ratCeil(r *big.Rat) *big.Rat {
	f := ratFloor(new(big.Rat).Neg(r))
	return f.Neg(f)
}
