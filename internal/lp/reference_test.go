package lp

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// This file keeps the SEED implementation of the exact LP path — a dense
// Bland's-rule phase-1 simplex over big.Rat that emits one `x ≤ cap` row
// per finite upper bound, splits free variables, and starts every solve
// from an all-artificial basis — as a reference oracle. The cross-engine
// parity property tests below pin the rewritten bounded-variable engine
// (implicit bounds, Dantzig/Bland pricing, rat64 fast path, dual-simplex
// warm starts) to it: the same feasibility verdict, and a point that
// satisfies every row and bound.

// refColInfo records how a model variable maps into reference columns.
type refColInfo struct {
	pos   int
	neg   int
	shift *big.Rat
	fixed *big.Rat
}

type refState struct {
	m, n       int
	nStruct    int
	rows       [][]*big.Rat
	basis      []int
	artStart   int
	cols       []refColInfo
	p          *Problem
	infeasible bool
}

// refSolveLP is the seed-style exact solver: standardize with explicit
// upper-bound rows, then phase-1 Bland simplex.
func refSolveLP(p *Problem) (*Solution, error) {
	st := refStandardize(p)
	if st.infeasible || !st.run() {
		return &Solution{Status: StatusInfeasible}, nil
	}
	return &Solution{Status: StatusOptimal, Values: st.extract()}, nil
}

func refStandardize(p *Problem) *refState {
	st := &refState{p: p}
	st.cols = make([]refColInfo, len(p.Vars))
	ncol := 0
	type upperRow struct {
		col int
		cap *big.Rat
	}
	var uppers []upperRow
	for i := range p.Vars {
		lo, hi := p.Vars[i].Lower, p.Vars[i].Upper
		if lo != nil && hi != nil {
			switch lo.Cmp(hi) {
			case 1:
				st.infeasible = true
				return st
			case 0:
				st.cols[i] = refColInfo{pos: -1, neg: -1, fixed: lo}
				continue
			}
		}
		if lo != nil {
			st.cols[i] = refColInfo{pos: ncol, neg: -1, shift: lo}
			if hi != nil {
				uppers = append(uppers, upperRow{ncol, new(big.Rat).Sub(hi, lo)})
			}
			ncol++
			continue
		}
		st.cols[i] = refColInfo{pos: ncol, neg: ncol + 1}
		ncol += 2
	}
	st.nStruct = ncol

	type rawRow struct {
		coef  map[int]*big.Rat
		sense Sense
		rhs   *big.Rat
	}
	var raws []rawRow
	for ci := range p.Constraints {
		c := &p.Constraints[ci]
		rhs := new(big.Rat).Set(c.RHS)
		coef := map[int]*big.Rat{}
		addCoef := func(col int, v *big.Rat) {
			if prev, ok := coef[col]; ok {
				prev.Add(prev, v)
			} else {
				coef[col] = new(big.Rat).Set(v)
			}
		}
		for _, t := range c.Terms {
			info := st.cols[t.Var]
			if info.fixed != nil {
				rhs.Sub(rhs, new(big.Rat).Mul(t.Coef, info.fixed))
				continue
			}
			if info.shift != nil {
				rhs.Sub(rhs, new(big.Rat).Mul(t.Coef, info.shift))
			}
			addCoef(info.pos, t.Coef)
			if info.neg >= 0 {
				addCoef(info.neg, new(big.Rat).Neg(t.Coef))
			}
		}
		raws = append(raws, rawRow{coef, c.Sense, rhs})
	}
	one := big.NewRat(1, 1)
	for _, u := range uppers {
		raws = append(raws, rawRow{map[int]*big.Rat{u.col: new(big.Rat).Set(one)}, LE, u.cap})
	}
	for i := range p.Vars {
		info := st.cols[i]
		if info.neg < 0 || info.fixed != nil {
			continue
		}
		if hi := p.Vars[i].Upper; hi != nil {
			raws = append(raws, rawRow{
				map[int]*big.Rat{info.pos: new(big.Rat).Set(one), info.neg: big.NewRat(-1, 1)},
				LE, new(big.Rat).Set(hi),
			})
		}
	}

	st.m = len(raws)
	nSlack := 0
	for _, r := range raws {
		if r.sense != EQ {
			nSlack++
		}
	}
	st.artStart = st.nStruct + nSlack
	st.n = st.artStart + st.m

	st.rows = make([][]*big.Rat, st.m)
	st.basis = make([]int, st.m)
	slackCol := st.nStruct
	for ri, raw := range raws {
		row := make([]*big.Rat, st.n+1)
		for j := range row {
			row[j] = new(big.Rat)
		}
		negate := raw.rhs.Sign() < 0
		for col, v := range raw.coef {
			if negate {
				row[col].Neg(v)
			} else {
				row[col].Set(v)
			}
		}
		rhs := new(big.Rat).Set(raw.rhs)
		sense := raw.sense
		if negate {
			rhs.Neg(rhs)
			switch sense {
			case LE:
				sense = GE
			case GE:
				sense = LE
			}
		}
		row[st.n].Set(rhs)
		switch sense {
		case LE:
			row[slackCol].SetInt64(1)
			slackCol++
		case GE:
			row[slackCol].SetInt64(-1)
			slackCol++
		}
		art := st.artStart + ri
		row[art].SetInt64(1)
		st.basis[ri] = art
		st.rows[ri] = row
	}

	return st
}

// run drives the artificials out by phase 1 and reports feasibility.
func (st *refState) run() bool {
	objRow := make([]*big.Rat, st.n+1)
	for j := 0; j <= st.n; j++ {
		s := new(big.Rat)
		for i := 0; i < st.m; i++ {
			s.Add(s, st.rows[i][j])
		}
		objRow[j] = s
	}
	for j := st.artStart; j < st.n; j++ {
		objRow[j] = new(big.Rat)
	}
	if !st.pivotLoop(objRow, st.artStart) || objRow[st.n].Sign() != 0 {
		return false
	}
	for i := 0; i < st.m; i++ {
		if st.basis[i] < st.artStart {
			continue
		}
		for j := 0; j < st.artStart; j++ {
			if st.rows[i][j].Sign() != 0 {
				st.pivot(i, j, nil)
				break
			}
		}
	}
	return true
}

func (st *refState) pivotLoop(objRow []*big.Rat, colLimit int) bool {
	for {
		enter := -1
		for j := 0; j < colLimit; j++ {
			if objRow[j].Sign() > 0 {
				enter = j
				break
			}
		}
		if enter < 0 {
			return true
		}
		leave := -1
		best := new(big.Rat)
		ratio := new(big.Rat)
		for i := 0; i < st.m; i++ {
			a := st.rows[i][enter]
			if a.Sign() <= 0 {
				continue
			}
			ratio.Quo(st.rows[i][st.n], a)
			if leave < 0 {
				leave = i
				best.Set(ratio)
				continue
			}
			switch ratio.Cmp(best) {
			case -1:
				leave = i
				best.Set(ratio)
			case 0:
				if st.basis[i] < st.basis[leave] {
					leave = i
				}
			}
		}
		if leave < 0 {
			return false
		}
		st.pivot(leave, enter, objRow)
	}
}

func (st *refState) pivot(row, col int, objRow []*big.Rat) {
	pr := st.rows[row]
	inv := new(big.Rat).Inv(pr[col])
	for j := 0; j <= st.n; j++ {
		pr[j].Mul(pr[j], inv)
	}
	tmp := new(big.Rat)
	for i := 0; i < st.m; i++ {
		if i == row {
			continue
		}
		f := new(big.Rat).Set(st.rows[i][col])
		if f.Sign() == 0 {
			continue
		}
		ri := st.rows[i]
		for j := 0; j <= st.n; j++ {
			ri[j].Sub(ri[j], tmp.Mul(f, pr[j]))
		}
	}
	if objRow != nil {
		f := new(big.Rat).Set(objRow[col])
		if f.Sign() != 0 {
			for j := 0; j <= st.n; j++ {
				objRow[j].Sub(objRow[j], tmp.Mul(f, pr[j]))
			}
		}
	}
	st.basis[row] = col
}

func (st *refState) extract() []*big.Rat {
	colVal := make([]*big.Rat, st.n)
	for j := range colVal {
		colVal[j] = new(big.Rat)
	}
	for i := 0; i < st.m; i++ {
		if st.basis[i] < st.n {
			colVal[st.basis[i]].Set(st.rows[i][st.n])
		}
	}
	out := make([]*big.Rat, len(st.p.Vars))
	for i := range st.p.Vars {
		info := st.cols[i]
		if info.fixed != nil {
			out[i] = new(big.Rat).Set(info.fixed)
			continue
		}
		v := new(big.Rat).Set(colVal[info.pos])
		if info.neg >= 0 {
			v.Sub(v, colVal[info.neg])
		}
		if info.shift != nil {
			v.Add(v, info.shift)
		}
		out[i] = v
	}
	return out
}

// randomBoundedProblem builds a random LP/ILP with a mix of bound shapes:
// finite boxes, one-sided bounds, fixed and free variables, and all three
// constraint senses.
func randomBoundedProblem(rng *rand.Rand, integer bool) *Problem {
	p := &Problem{}
	nVars := 2 + rng.Intn(4)
	for i := 0; i < nVars; i++ {
		var lo, hi *big.Rat
		switch rng.Intn(5) {
		case 0: // box
			l := int64(rng.Intn(7) - 3)
			lo, hi = big.NewRat(l, 1), big.NewRat(l+int64(rng.Intn(6)), 1)
		case 1: // lower only
			lo = big.NewRat(int64(rng.Intn(5)-2), 1)
		case 2: // upper only
			hi = big.NewRat(int64(rng.Intn(7)), 1)
		case 3: // fixed
			v := big.NewRat(int64(rng.Intn(5)-1), 1)
			lo, hi = v, v
		case 4: // free
		}
		if integer {
			// Integer search needs a bounded box to terminate.
			if lo == nil {
				lo = big.NewRat(int64(-2-rng.Intn(3)), 1)
			}
			if hi == nil {
				hi = new(big.Rat).Add(lo, big.NewRat(int64(rng.Intn(6)), 1))
			}
			p.AddIntVar("x", lo, hi)
		} else {
			p.AddVar("x", lo, hi)
		}
	}
	nCons := 1 + rng.Intn(4)
	for c := 0; c < nCons; c++ {
		var terms []Term
		for i := 0; i < nVars; i++ {
			coef := int64(rng.Intn(9) - 4)
			if coef != 0 {
				terms = append(terms, T(VarID(i), coef))
			}
		}
		if len(terms) == 0 {
			terms = append(terms, T(0, 1))
		}
		sense := []Sense{LE, GE, EQ}[rng.Intn(3)]
		p.AddConstraint("c", terms, sense, big.NewRat(int64(rng.Intn(17)-6), 1))
	}
	return p
}

// Property: on random bounded LPs the rewritten exact engine agrees with
// the seed-style Bland reference on feasibility, and any point it returns
// satisfies every constraint and bound.
func TestSolveLPParityWithReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomBoundedProblem(rng, false)
		got, err := solveLP(p)
		if err != nil {
			return false
		}
		want, err := refSolveLP(p)
		if err != nil {
			return false
		}
		if got.Status != want.Status {
			t.Logf("seed %d: status %v, reference %v\n%s", seed, got.Status, want.Status, p)
			return false
		}
		return got.Status != StatusOptimal || p.Check(got.Values) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: on random bounded ILPs, EngineExact (new pivoting/bounds
// machinery plus warm-started branch and bound) never contradicts the
// seed-style reference relaxation — an integral point needs a feasible
// relaxation — and EngineFloat-with-exact-verify never reports a point the
// exact engine cannot find. Solutions must pass the exact Check.
func TestSolveILPCrossEngineParity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomBoundedProblem(rng, true)
		exact, err := solveILP(p, ILPOptions{Engine: EngineExact})
		if err != nil {
			return false
		}
		if exact.Status == StatusOptimal && p.Check(exact.Values) != nil {
			t.Logf("seed %d: exact solution fails Check\n%s", seed, p)
			return false
		}
		relax, err := refSolveLP(p)
		if err != nil {
			return false
		}
		if relax.Status == StatusInfeasible && exact.Status != StatusInfeasible {
			t.Logf("seed %d: relaxation infeasible but ILP %v\n%s", seed, exact.Status, p)
			return false
		}
		fl, err := solveILP(p, ILPOptions{Engine: EngineFloat})
		if err != nil {
			return false
		}
		// Float may (rarely) misreport a feasible system as infeasible due
		// to rounding; the exact engine is the authority, so only a float
		// point is checked.
		if fl.Status == StatusOptimal {
			if p.Check(fl.Values) != nil {
				t.Logf("seed %d: float solution fails exact Check\n%s", seed, p)
				return false
			}
			if exact.Status != StatusOptimal {
				t.Logf("seed %d: float optimal but exact %v\n%s", seed, exact.Status, p)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestRat64Promotion forces the int64 fast path to overflow (coefficients
// near 2^62 whose tableau products exceed int64) and checks the solve still
// decides exactly via transparent big.Rat promotion: x + y ≥ 5 is
// satisfiable (the maximum of x + y is just under 6) and x + y ≥ 6 is not,
// as the reference says.
func TestRat64Promotion(t *testing.T) {
	build := func(atLeast int64) *Problem {
		p := &Problem{}
		huge := new(big.Rat).SetInt64(1 << 62)
		x := p.AddVar("x", big.NewRat(0, 1), nil)
		y := p.AddVar("y", big.NewRat(0, 1), nil)
		p.AddConstraint("c1", []Term{{x, huge}, {y, big.NewRat(3, 1)}}, LE, new(big.Rat).Mul(huge, big.NewRat(5, 1)))
		p.AddConstraint("c2", []Term{{x, big.NewRat(1, 1)}, {y, huge}}, LE, huge)
		p.AddConstraint("sum", []Term{T(x, 1), T(y, 1)}, GE, big.NewRat(atLeast, 1))
		return p
	}
	for _, tc := range []struct {
		atLeast int64
		want    Status
	}{{5, StatusOptimal}, {6, StatusInfeasible}} {
		p := build(tc.atLeast)
		sol := requireStatus(t, "exact", solveLP, p, tc.want)
		ref, err := refSolveLP(p)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Status != tc.want {
			t.Fatalf("x+y ≥ %d: reference status %v, want %v", tc.atLeast, ref.Status, tc.want)
		}
		if tc.want == StatusOptimal {
			if err := p.Check(sol.Values); err != nil {
				t.Errorf("x+y ≥ %d: %v", tc.atLeast, err)
			}
		}
	}
}
