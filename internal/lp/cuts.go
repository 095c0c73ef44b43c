package lp

import (
	"fmt"
	"math/big"
	"sort"
)

// This file implements root cutting planes for the branch-and-bound search
// (ILPOptions.RootCuts): the root relaxation is solved exactly once, Gomory
// fractional cuts and knapsack-cover cuts are separated from its optimal
// basis, and the search then runs on the problem with the cut rows
// appended as ordinary constraints — so PR 2's node-to-node dual reentry
// and PR 3's incremental Model layer work on cut rows unchanged.
//
// Every emitted cut is valid for EVERY integer-feasible point (never just
// for improving ones), so the optimal objective value is exactly preserved;
// with alternate integer optima the cut tree may surface a different
// optimal point than the cut-free tree, which is why RootCuts guarantees
// objective identity rather than full Solution identity (the hybrid mode's
// stronger contract). The cut-validity fuzz in property_test.go checks the
// never-cuts-an-integer-point invariant directly.

// Caps on emitted cuts: root cuts pay off steeply and then plateau, while
// every extra row widens all later FTRAN/BTRANs. A handful of each family
// is the classic operating point.
const (
	maxGomoryCuts = 8
	maxCoverCuts  = 8
)

// solveILPRootCuts is the RootCuts entry: separate at the root, append, and
// run the ordinary search (hybrid or plain exact, per opts.Hybrid) on the
// augmented problem.
func solveILPRootCuts(p *Problem, opts ILPOptions) (*Solution, error) {
	o := opts
	o.RootCuts = false
	cuts := separateRootCuts(p, opts.Cancel)
	if len(cuts) == 0 {
		return SolveILP(p, o)
	}
	aug := *p
	aug.Constraints = append(p.Constraints[:len(p.Constraints):len(p.Constraints)], cuts...)
	return SolveILP(&aug, o)
}

// separateRootCuts solves the root relaxation exactly and returns the cut
// rows found there. Cuts are separated only for objective problems (a
// feasibility search stops at its first integral point, and cuts would
// change WHICH point that is) and only from an optimal root basis —
// infeasible, unbounded or cancelled roots return no cuts and the plain
// search deals with them.
func separateRootCuts(p *Problem, cancel <-chan struct{}) []Constraint {
	if len(p.Objective) == 0 || len(p.Constraints) == 0 {
		return nil
	}
	hasInt := false
	for i := range p.Vars {
		if p.Vars[i].Integer {
			hasInt = true
			break
		}
	}
	if !hasInt {
		return nil
	}
	var cuts []Constraint
	if !promote(func() { cuts = rootCutsWith[rat64, rat64Arith](p, rat64Arith{}, cancel) }) {
		cuts = rootCutsWith[*big.Rat, ratArith](p, ratArith{}, cancel)
	}
	return cuts
}

func rootCutsWith[T any, A arith[T]](p *Problem, ar A, cancel <-chan struct{}) []Constraint {
	rv := newRevised[T, A](p, ar)
	rv.setCancel(cancel)
	lo, hi := declaredBounds(p)
	if rv.solveNode(lo, hi) != StatusOptimal {
		return nil
	}
	cuts := gomoryCuts(rv)
	cuts = append(cuts, coverCuts(rv)...)
	return cuts
}

// ratFrac returns the fractional part q − ⌊q⌋ ∈ [0, 1).
func ratFrac(q *big.Rat) *big.Rat {
	return new(big.Rat).Sub(q, ratFloor(q))
}

// rowIntegral reports whether constraint i has integer data throughout —
// integer coefficients over integer variables and an integer right-hand
// side — which makes its logical variable integral at every integer point.
func rowIntegral(p *Problem, i int) bool {
	c := &p.Constraints[i]
	if !c.RHS.IsInt() {
		return false
	}
	for _, t := range c.Terms {
		if !t.Coef.IsInt() || !p.Vars[t.Var].Integer {
			return false
		}
	}
	return true
}

// gomoryCuts derives Gomory fractional cuts from the optimal root basis.
//
// For a basis row r with basic integer variable x_B(r) at fractional value
// x̄_r, writing every nonbasic column j as its home value v_j plus a
// nonnegative offset t_j (x_j = v_j + σ_j·t_j, σ_j = +1 at a lower home,
// −1 at an upper home) turns the tableau row into
//
//	x_B(r) + Σ_j g_j·t_j = x̄_r,   g_j = σ_j·ā_rj,
//
// and whenever x_B(r) and every t_j are integral the fractional cut
//
//	Σ_j frac(g_j)·t_j ≥ frac(x̄_r)
//
// is valid for all such points and violated (0 ≥ frac > 0) at the current
// root point. A row qualifies only when every nonbasic with ā_rj ≠ 0 is
// provably integral-with-integral-home: an integer structural variable
// resting on an integer bound, or the logical of an all-integer row
// (rowIntegral) resting on its zero bound. The t_j are then expanded back
// to structural space and the cut emitted as an ordinary ≥ constraint.
func gomoryCuts[T any, A arith[T]](rv *revised[T, A]) []Constraint {
	ar := rv.ar
	p := rv.p
	var cuts []Constraint
	rowOK := make([]int8, rv.m) // memo for rowIntegral: 0 unknown, 1 yes, -1 no
	xbar := new(big.Rat)
	for r := 0; r < rv.m && len(cuts) < maxGomoryCuts; r++ {
		j0 := rv.basis[r]
		if j0 >= rv.nv || !p.Vars[j0].Integer {
			continue
		}
		ar.setRat(xbar, rv.xB[r])
		if xbar.IsInt() {
			continue
		}
		rv.pivotRow(r)
		coef := map[VarID]*big.Rat{}
		rhs := ratFrac(xbar) // f0; home constants accumulate below
		ok := true
		terms := 0
		for j := 0; j < rv.artStart && ok; j++ {
			if rv.stat[j] == inBasis || rv.fixedRange(j) {
				continue // fixed columns contribute t_j ≡ 0
			}
			a := rv.dot(rv.rho, j)
			if ar.sign(a) == 0 {
				continue
			}
			g := new(big.Rat)
			ar.setRat(g, a)
			atUpper := false
			switch rv.stat[j] {
			case nbLower:
			case nbUpper:
				atUpper = true
				g.Neg(g) // σ_j = −1
			default: // free column: t_j unbounded below, no valid offset
				ok = false
				continue
			}
			phi := ratFrac(g)
			if phi.Sign() == 0 {
				continue // integral multiplier: no contribution either way
			}
			if j < rv.nv {
				v := p.Vars[j].Lower
				if atUpper {
					v = p.Vars[j].Upper
				}
				if !p.Vars[j].Integer || v == nil || !v.IsInt() {
					ok = false
					continue
				}
				// φ·t = φ·σ·(x_j − v): σ=+1 at lower, −1 at upper.
				c := new(big.Rat).Set(phi)
				if atUpper {
					c.Neg(c)
				}
				addCoef(coef, VarID(j), c)
				rhs.Add(rhs, new(big.Rat).Mul(c, v))
				terms++
			} else {
				i := j - rv.nv
				if rowOK[i] == 0 {
					if rowIntegral(p, i) {
						rowOK[i] = 1
					} else {
						rowOK[i] = -1
					}
				}
				if rowOK[i] < 0 {
					ok = false
					continue
				}
				// Logical home is 0 on the row's closed side: t = b_i − A_i·x
				// for ≤ rows (lower home), t = A_i·x − b_i for ≥ rows (upper
				// home). φ·t expands over the row's terms.
				sign := new(big.Rat).Set(phi)
				if !atUpper {
					sign.Neg(sign) // ≤ row: coefficient −φ·a_ik, rhs −φ·b_i
				}
				for _, t := range p.Constraints[i].Terms {
					addCoef(coef, t.Var, new(big.Rat).Mul(sign, t.Coef))
				}
				rhs.Add(rhs, new(big.Rat).Mul(sign, p.Constraints[i].RHS))
				terms++
			}
		}
		if !ok || terms == 0 {
			continue
		}
		cut := Constraint{
			Name:  fmt.Sprintf("gomory#%d", r),
			Sense: GE,
			RHS:   rhs,
			Terms: sortedTerms(coef),
		}
		if len(cut.Terms) == 0 {
			continue
		}
		cuts = append(cuts, cut)
	}
	return cuts
}

// coverCuts separates minimal-cover cuts from knapsack rows: for a row
// Σ a_j·x_j ≤ b over binary variables with positive coefficients, any set C
// with Σ_{j∈C} a_j > b admits the cover inequality Σ_{j∈C} x_j ≤ |C|−1
// (the variables of C cannot all be 1), valid for every feasible 0/1 point
// regardless of whether the data are integral. Covers are built greedily by
// descending root-relaxation value and emitted only when the root point
// violates them.
func coverCuts[T any, A arith[T]](rv *revised[T, A]) []Constraint {
	ar := rv.ar
	p := rv.p
	one := big.NewRat(1, 1)
	var cuts []Constraint
	val := new(big.Rat)
	for i := 0; i < rv.m && len(cuts) < maxCoverCuts; i++ {
		c := &p.Constraints[i]
		if c.Sense != LE || len(c.Terms) < 2 || c.RHS.Sign() < 0 {
			continue
		}
		type item struct {
			v    VarID
			a    *big.Rat
			xbar *big.Rat
		}
		items := make([]item, 0, len(c.Terms))
		total := new(big.Rat)
		binary := true
		for _, t := range c.Terms {
			vr := &p.Vars[t.Var]
			if !vr.Integer || t.Coef.Sign() <= 0 ||
				vr.Lower == nil || vr.Lower.Sign() != 0 ||
				vr.Upper == nil || vr.Upper.Cmp(one) != 0 {
				binary = false
				break
			}
			ar.setRat(val, rv.value(int(t.Var)))
			items = append(items, item{t.Var, t.Coef, new(big.Rat).Set(val)})
			total.Add(total, t.Coef)
		}
		if !binary || total.Cmp(c.RHS) <= 0 {
			continue // not a binary knapsack, or never binding
		}
		sort.SliceStable(items, func(a, b int) bool {
			if cmp := items[a].xbar.Cmp(items[b].xbar); cmp != 0 {
				return cmp > 0
			}
			return items[a].v < items[b].v
		})
		sum := new(big.Rat)
		lhs := new(big.Rat)
		cover := 0
		for _, it := range items {
			sum.Add(sum, it.a)
			lhs.Add(lhs, it.xbar)
			cover++
			if sum.Cmp(c.RHS) > 0 {
				break
			}
		}
		if sum.Cmp(c.RHS) <= 0 {
			continue // defensive: cannot happen, total > RHS
		}
		// Violated at the root iff Σ_{C} x̄ > |C|−1.
		if lhs.Cmp(big.NewRat(int64(cover-1), 1)) <= 0 {
			continue
		}
		terms := make([]Term, cover)
		for k := 0; k < cover; k++ {
			terms[k] = Term{Var: items[k].v, Coef: big.NewRat(1, 1)}
		}
		sort.Slice(terms, func(a, b int) bool { return terms[a].Var < terms[b].Var })
		cuts = append(cuts, Constraint{
			Name:  fmt.Sprintf("cover#%d", i),
			Sense: LE,
			RHS:   big.NewRat(int64(cover-1), 1),
			Terms: terms,
		})
	}
	return cuts
}

func addCoef(coef map[VarID]*big.Rat, v VarID, c *big.Rat) {
	if cur, ok := coef[v]; ok {
		cur.Add(cur, c)
	} else {
		coef[v] = new(big.Rat).Set(c)
	}
}

// sortedTerms flattens a coefficient map into Terms ordered by variable,
// dropping exact zeros (cancelled coefficients).
func sortedTerms(coef map[VarID]*big.Rat) []Term {
	terms := make([]Term, 0, len(coef))
	for v, c := range coef {
		if c.Sign() != 0 {
			terms = append(terms, Term{Var: v, Coef: c})
		}
	}
	sort.Slice(terms, func(a, b int) bool { return terms[a].Var < terms[b].Var })
	return terms
}
