package lp

import (
	"errors"
	"math/big"
	"math/rand"
	"os"
	"strconv"
	"testing"
)

// This file pins the production simplex (the revised engine, revised.go
// and factor.go) to the dense oracle (dense_test.go) bit for bit: same
// Status, same Objective, and equal Values rationals, on random LPs and
// ILPs, through from-scratch solves and through lp.Model edit sequences.
// The dense oracle is the reference; any divergence is a revised-engine
// bug.
//
// Rounds scale with LP_PARITY_ROUNDS (make test-lp-long sets it high); the
// default keeps the suite fast enough for every `go test ./...`.

// parityRounds returns the round count for a parity fuzz loop, scaled by
// the LP_PARITY_ROUNDS environment variable when set.
func parityRounds(t *testing.T, def int) int {
	if s := os.Getenv("LP_PARITY_ROUNDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad LP_PARITY_ROUNDS=%q", s)
		}
		return n
	}
	if testing.Short() {
		return def / 4
	}
	return def
}

// sameSolution fails the test unless the two solutions are bit-identical:
// same status, same objective (or both absent), and equal values at every
// variable.
func requireSameSolution(t *testing.T, tag string, dense, rev *Solution) {
	t.Helper()
	if dense.Status != rev.Status {
		t.Fatalf("%s: status dense=%v revised=%v", tag, dense.Status, rev.Status)
	}
	if (dense.Objective == nil) != (rev.Objective == nil) {
		t.Fatalf("%s: objective presence dense=%v revised=%v", tag, dense.Objective, rev.Objective)
	}
	if dense.Objective != nil && dense.Objective.Cmp(rev.Objective) != 0 {
		t.Fatalf("%s: objective dense=%s revised=%s", tag, dense.Objective, rev.Objective)
	}
	if len(dense.Values) != len(rev.Values) {
		t.Fatalf("%s: value count dense=%d revised=%d", tag, len(dense.Values), len(rev.Values))
	}
	for i := range dense.Values {
		if dense.Values[i].Cmp(rev.Values[i]) != 0 {
			t.Fatalf("%s: value[%d] dense=%s revised=%s", tag, i, dense.Values[i], rev.Values[i])
		}
	}
}

// TestRevisedParityLP solves random bounded LPs with SolveLP and the dense
// oracle and requires bit-identical solutions.
func TestRevisedParityLP(t *testing.T) {
	rounds := parityRounds(t, 400)
	for seed := 0; seed < rounds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		p := randomBoundedProblem(rng, false)
		dense, err := denseLP(p)
		if err != nil {
			t.Fatalf("seed %d: dense: %v", seed, err)
		}
		rev, err := SolveLP(p)
		if err != nil {
			t.Fatalf("seed %d: revised: %v", seed, err)
		}
		if dense.Status == StatusOptimal {
			requireSameSolution(t, "LP seed "+strconv.Itoa(seed), dense, rev)
		} else if dense.Status != rev.Status {
			t.Fatalf("seed %d: status dense=%v revised=%v\n%s", seed, dense.Status, rev.Status, p)
		}
	}
}

// TestRevisedParityILP runs the warm-started branch and bound through
// SolveILP and over the dense oracle and requires bit-identical solutions,
// including under deterministic work budgets (the revised engine charges
// the dense oracle's work units, so StatusLimit must strike at the same
// node). 40_000 units almost never run out on this corpus; 200 stops about
// a tenth of the searches.
func TestRevisedParityILP(t *testing.T) {
	rounds := parityRounds(t, 200)
	for seed := 0; seed < rounds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		p := randomBoundedProblem(rng, true)
		for _, opts := range []ILPOptions{
			{},
			{MaxWork: 40_000},
			{MaxWork: 200},
		} {
			dense, err := denseILP(p, opts)
			if err != nil {
				t.Fatalf("seed %d: dense: %v", seed, err)
			}
			rev, err := SolveILP(p, opts)
			if err != nil {
				t.Fatalf("seed %d: revised: %v", seed, err)
			}
			tag := "ILP seed " + strconv.Itoa(seed)
			if dense.Status == StatusOptimal {
				requireSameSolution(t, tag, dense, rev)
			} else if dense.Status != rev.Status {
				t.Fatalf("%s: status dense=%v revised=%v\n%s", tag, dense.Status, rev.Status, p)
			}
		}
	}
}

// randomEdit applies one random in-place edit through the Model setters,
// mirroring what refinement probes, lifelong epochs, and branch-and-bound
// reentry do to a retained model.
func randomEdit(rng *rand.Rand, mo *Model) {
	p := mo.Problem()
	switch rng.Intn(2) {
	case 0: // retarget a bound; sometimes alias lo==hi through one pointer
		v := VarID(rng.Intn(len(p.Vars)))
		var lo, hi *big.Rat
		switch rng.Intn(4) {
		case 0:
			b := big.NewRat(int64(rng.Intn(7)-3), 1)
			lo, hi = b, b // aliased fixed bound
		case 1:
			lo = big.NewRat(int64(rng.Intn(5)-2), 1)
			hi = new(big.Rat).Add(lo, big.NewRat(int64(rng.Intn(5)), 1))
		case 2:
			lo = big.NewRat(int64(rng.Intn(5)-2), 1)
		case 3:
			hi = big.NewRat(int64(rng.Intn(7)), 1)
		}
		// One-sided integer edits (seed 1376's historical hang) are fair
		// game since the integer-box derivation and the open-march guard:
		// the search either boxes the open side from the rows or rejects
		// the runaway branch with ErrUnboundedIntDomain, identically in
		// every representation.
		mo.SetBound(v, lo, hi)
	case 1: // retarget a right-hand side
		ci := rng.Intn(len(p.Constraints))
		rhs := big.NewRat(int64(rng.Intn(17)-6), 1)
		mo.SetRHS(ci, rhs)
	}
}

// TestRevisedParityModelEdits drives random edit sequences through a
// retained Model, re-solving (LP and ILP) after every edit, and checks each
// answer against a from-scratch dense-oracle solve of the edited problem.
// This covers the cold re-solve in a retained arena after SetBound/SetRHS
// and branch-and-bound node reentry, all over the factorized basis.
func TestRevisedParityModelEdits(t *testing.T) {
	rounds := parityRounds(t, 60)
	for seed := 0; seed < rounds; seed++ {
		rng := rand.New(rand.NewSource(int64(1000 + seed)))
		integer := seed%2 == 0
		mo := NewModel(randomBoundedProblem(rng, integer))

		edits := 3 + rng.Intn(5)
		for e := 0; e <= edits; e++ {
			if e > 0 {
				randomEdit(rand.New(rand.NewSource(rng.Int63())), mo)
			}
			tag := "model seed " + strconv.Itoa(seed) + " edit " + strconv.Itoa(e)
			rev, err := mo.Resolve()
			if err != nil {
				t.Fatalf("%s: resolve: %v", tag, err)
			}
			scratch, err := denseLP(mo.Problem())
			if err != nil {
				t.Fatalf("%s: scratch: %v", tag, err)
			}
			if scratch.Status == StatusOptimal {
				requireSameSolution(t, tag+" (LP)", scratch, rev)
			} else if scratch.Status != rev.Status {
				t.Fatalf("%s: status scratch=%v revised=%v", tag, scratch.Status, rev.Status)
			}
			if integer {
				ri, rerr := mo.ResolveILP(ILPOptions{})
				di, derr := denseILP(mo.Problem(), ILPOptions{})
				if derr != nil || rerr != nil {
					// An edit can leave an integer variable one-sided with
					// no derivable box; the open-march guard must then
					// reject BOTH solves with the typed error.
					if errors.Is(derr, ErrUnboundedIntDomain) && errors.Is(rerr, ErrUnboundedIntDomain) {
						continue
					}
					t.Fatalf("%s: ILP dense err=%v revised err=%v", tag, derr, rerr)
				}
				if di.Status == StatusOptimal {
					requireSameSolution(t, tag+" (ILP)", di, ri)
				} else if di.Status != ri.Status {
					t.Fatalf("%s: ILP status dense=%v revised=%v", tag, di.Status, ri.Status)
				}
			}
		}
	}
}

// randomSparseNetwork builds a larger conservation-plus-capacity LP in the
// shape the contract compiler emits — enough pivots to roll the eta file
// past its refactorization triggers.
func randomSparseNetwork(rng *rand.Rand, nodes, commodities int, integer bool) *Problem {
	p := &Problem{}
	zero := big.NewRat(0, 1)
	fv := make([][]VarID, nodes)
	for e := 0; e < nodes; e++ {
		fv[e] = make([]VarID, commodities)
		for k := 0; k < commodities; k++ {
			if integer {
				fv[e][k] = p.AddIntVar("f", zero, big.NewRat(int64(4+rng.Intn(6)), 1))
			} else {
				fv[e][k] = p.AddVar("f", zero, nil)
			}
		}
	}
	for c := 0; c < nodes; c++ {
		in, out := (c+nodes-1)%nodes, c
		for k := 0; k < commodities; k++ {
			terms := []Term{T(fv[in][k], 1), T(fv[out][k], -1)}
			if c == 0 && k > 0 {
				p.AddConstraint("pick", terms, GE, big.NewRat(-int64(1+rng.Intn(3)), 1))
				continue
			}
			p.AddConstraint("cons", terms, EQ, zero)
		}
	}
	for e := 0; e < nodes; e++ {
		terms := make([]Term, commodities)
		for k := 0; k < commodities; k++ {
			terms[k] = T(fv[e][k], 1)
		}
		p.AddConstraint("cap", terms, LE, big.NewRat(int64(2+commodities+rng.Intn(4)), 1))
	}
	for k := 1; k < commodities; k++ {
		p.AddConstraint("demand", []Term{T(fv[nodes/2][k], 1)}, GE, big.NewRat(int64(1+k%2), 1))
	}
	var obj []Term
	for e := 0; e < nodes; e++ {
		for k := 0; k < commodities; k++ {
			obj = append(obj, T(fv[e][k], int64(1+rng.Intn(3))))
		}
	}
	p.SetObjective(obj, false)
	return p
}

// TestRevisedParityLarge checks parity on contract-shaped networks,
// exercising refactorization and the eta file, on LP and ILP solves plus a
// SetRHS re-solve ride.
func TestRevisedParityLarge(t *testing.T) {
	rounds := parityRounds(t, 8)
	for seed := 0; seed < rounds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		integer := seed%2 == 1
		p := randomSparseNetwork(rng, 12+rng.Intn(6), 4+rng.Intn(3), integer)
		dense, err := denseLP(p)
		if err != nil {
			t.Fatalf("seed %d: dense: %v", seed, err)
		}
		rev, err := SolveLP(p)
		if err != nil {
			t.Fatalf("seed %d: revised: %v", seed, err)
		}
		tag := "large seed " + strconv.Itoa(seed)
		if dense.Status == StatusOptimal {
			requireSameSolution(t, tag, dense, rev)
		} else if dense.Status != rev.Status {
			t.Fatalf("%s: status dense=%v revised=%v", tag, dense.Status, rev.Status)
		}
		if integer {
			di, err := denseILP(p, ILPOptions{})
			if err != nil {
				t.Fatalf("%s: dense ILP: %v", tag, err)
			}
			ri, err := SolveILP(p, ILPOptions{})
			if err != nil {
				t.Fatalf("%s: revised ILP: %v", tag, err)
			}
			if di.Status == StatusOptimal {
				requireSameSolution(t, tag+" (ILP)", di, ri)
			} else if di.Status != ri.Status {
				t.Fatalf("%s: ILP status dense=%v revised=%v", tag, di.Status, ri.Status)
			}
		}
		// SetRHS retargets plus re-solves in the retained arena, each
		// against a scratch oracle solve of the edited network.
		mo := NewModel(p)
		if _, err := mo.Resolve(); err != nil {
			t.Fatal(err)
		}
		for probe := 0; probe < 4; probe++ {
			ci := rng.Intn(len(p.Constraints))
			mo.SetRHS(ci, big.NewRat(int64(rng.Intn(9)-2), 1))
			rs, err := mo.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			ds, err := denseLP(p)
			if err != nil {
				t.Fatal(err)
			}
			ptag := tag + " probe " + strconv.Itoa(probe)
			if ds.Status == StatusOptimal {
				requireSameSolution(t, ptag, ds, rs)
			} else if ds.Status != rs.Status {
				t.Fatalf("%s: status dense=%v revised=%v", ptag, ds.Status, rs.Status)
			}
		}
	}
}
