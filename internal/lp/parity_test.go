package lp

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"strconv"
	"testing"
)

// This file pins the production simplex (the revised engine, revised.go
// and factor.go) to the dense oracle (dense_test.go) bit for bit: same
// Status and equal Values rationals, on random LPs and ILPs, through
// from-scratch solves and through lp.Model edit sequences. The dense
// oracle is the reference; any divergence is a revised-engine bug.
//
// The fixed-seed loops here scale with LP_PARITY_ROUNDS (make test-lp-long
// sets it high), and their defaults keep the suite fast enough for every
// `go test ./...`; FuzzRevisedParity draws its problems from a fuzzed
// generator seed.

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

// requireSameSolution fails the test unless the two solutions are
// bit-identical: same status and equal values at every variable.
func requireSameSolution(t *testing.T, tag string, dense, rev *Solution) {
	t.Helper()
	if err := sameSolution(dense, rev); err != nil {
		t.Fatalf("%s: dense vs revised: %v", tag, err)
	}
}

// lpParity checks the LP half of the parity property on the bounded LP
// that seed draws: the revised engine (solveLP) matches the dense oracle
// bit for bit, and the float engine reaches the exact verdict.
func lpParity(t *testing.T, seed int64) {
	t.Helper()
	p := randomBoundedProblem(rand.New(rand.NewSource(seed)), false)
	tag := fmt.Sprintf("LP seed %d", seed)
	dense, err := denseLP(p)
	if err != nil {
		t.Fatalf("%s: dense: %v", tag, err)
	}
	rev, err := solveLP(p)
	if err != nil {
		t.Fatalf("%s: revised: %v", tag, err)
	}
	requireSameSolution(t, tag, dense, rev)
	fl, err := solveLPFloat(p)
	if err != nil {
		t.Fatalf("%s: float: %v", tag, err)
	}
	if fl.Status != rev.Status {
		t.Fatalf("%s: status exact=%v float=%v\n%s", tag, rev.Status, fl.Status, p)
	}
}

// ilpParity checks the ILP half of the parity property on the bounded ILP
// that seed draws: the warm-started branch and bound (solveILP) matches the
// dense oracle bit for bit, unbudgeted and under deterministic work budgets
// (the revised engine charges the dense oracle's work units, so StatusLimit
// must strike at the same node; 40,000 units almost never run out on this
// generator, 200 stop about a tenth of the searches), and the float engine
// reaches the exact unbudgeted verdict.
func ilpParity(t *testing.T, seed int64) {
	t.Helper()
	p := randomBoundedProblem(rand.New(rand.NewSource(seed)), true)
	for _, opts := range []ILPOptions{{}, {MaxWork: 40_000}, {MaxWork: 200}} {
		tag := fmt.Sprintf("ILP seed %d MaxWork=%d", seed, opts.MaxWork)
		dense, err := denseILP(p, opts)
		if err != nil {
			t.Fatalf("%s: dense: %v", tag, err)
		}
		rev, err := solveILP(p, opts)
		if err != nil {
			t.Fatalf("%s: revised: %v", tag, err)
		}
		requireSameSolution(t, tag, dense, rev)
		if opts.MaxWork != 0 {
			continue
		}
		fl, err := solveILP(p, ILPOptions{Engine: EngineFloat})
		if err != nil {
			t.Fatalf("%s: float: %v", tag, err)
		}
		if fl.Status != rev.Status {
			t.Fatalf("%s: status exact=%v float=%v\n%s", tag, rev.Status, fl.Status, p)
		}
	}
}

// TestRevisedParityLP runs the LP half of the parity property over the
// fixed seeds 0–399.
func TestRevisedParityLP(t *testing.T) {
	for seed := 0; seed < parityRounds(t, 400); seed++ {
		lpParity(t, int64(seed))
	}
}

// TestRevisedParityILP runs the ILP half of the parity property over the
// fixed seeds 0–399.
func TestRevisedParityILP(t *testing.T) {
	for seed := 0; seed < parityRounds(t, 400); seed++ {
		ilpParity(t, int64(seed))
	}
}

// FuzzRevisedParity runs both halves of the parity property on the LP and
// the ILP that a fuzzed generator seed draws. The fixed seeds are
// TestRevisedParityLP's and TestRevisedParityILP's, so the target's own
// corpus is seed 0 plus any failing input kept under testdata/fuzz.
func FuzzRevisedParity(f *testing.F) {
	f.Add(int64(0))
	f.Fuzz(func(t *testing.T, seed int64) {
		lpParity(t, seed)
		ilpParity(t, seed)
	})
}

// TestRevisedParityBlandFallback holds the revised engine to the dense
// oracle with both pricers' stall threshold at zero, so phase 1 switches to
// Bland's least-index entering rule after every degenerate pivot; random
// problems almost never stall long enough to reach it at the production
// threshold. (The dual's fallback stays off even so: its leaving row
// violates a bound, so in exact arithmetic every dual step moves.)
func TestRevisedParityBlandFallback(t *testing.T) {
	for seed := 0; seed < parityRounds(t, 200); seed++ {
		p := randomBoundedProblem(rand.New(rand.NewSource(int64(seed))), true)
		tag := "bland seed " + strconv.Itoa(seed)
		for _, opts := range []ILPOptions{{}, {MaxWork: 200}} {
			var dense, rev *Solution
			var dw, rw int64
			if !promote(func() {
				tb := newTableau[rat64, rat64Arith](p, rat64Arith{})
				tb.pr.threshold = 0
				rv := newRevised[rat64, rat64Arith](p, rat64Arith{})
				rv.pr.threshold = 0
				var err error
				if dense, err = bbSolveArena[rat64](p, tb, rat64Arith{}, opts); err != nil {
					t.Fatalf("%s: dense: %v", tag, err)
				}
				if rev, err = bbSolveArena[rat64](p, rv, rat64Arith{}, opts); err != nil {
					t.Fatalf("%s: revised: %v", tag, err)
				}
				dw, rw = tb.work, rv.work
			}) {
				continue // int64 overflow: the big.Rat path is covered elsewhere
			}
			requireSameSolution(t, tag, dense, rev)
			if dw != rw {
				t.Fatalf("%s: work dense=%d revised=%d", tag, dw, rw)
			}
		}
	}
}

// randomEdit applies one random in-place edit to a retained model's
// problem p — a variable's bounds in p, which every solve reads, or a
// right-hand side through SetRHS — mirroring what refinement probes,
// lifelong epochs, and branch-and-bound reentry do to a retained model.
func randomEdit(rng *rand.Rand, mo *Model, p *Problem) {
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
		p.Vars[v].Lower, p.Vars[v].Upper = lo, hi
	case 1: // retarget a right-hand side
		ci := rng.Intn(len(p.Constraints))
		rhs := big.NewRat(int64(rng.Intn(17)-6), 1)
		mo.SetRHS(ci, rhs)
	}
}

// TestRevisedParityModelEdits drives random edit sequences through a
// retained Model, re-solving (LP and ILP) after every edit, and checks each
// answer against a from-scratch dense-oracle solve of the edited problem.
// This covers the cold re-solve in a retained arena after bound and SetRHS
// edits and branch-and-bound node reentry, all over the factorized basis.
func TestRevisedParityModelEdits(t *testing.T) {
	rounds := parityRounds(t, 60)
	for seed := 0; seed < rounds; seed++ {
		rng := rand.New(rand.NewSource(int64(1000 + seed)))
		integer := seed%2 == 0
		p := randomBoundedProblem(rng, integer)
		mo := NewModel(p)

		edits := 3 + rng.Intn(5)
		for e := 0; e <= edits; e++ {
			if e > 0 {
				randomEdit(rand.New(rand.NewSource(rng.Int63())), mo, p)
			}
			tag := "model seed " + strconv.Itoa(seed) + " edit " + strconv.Itoa(e)
			rev, err := mo.ResolveWith(SolveOptions{})
			if err != nil {
				t.Fatalf("%s: resolve: %v", tag, err)
			}
			scratch, err := denseLP(p)
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
				di, derr := denseILP(p, ILPOptions{})
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
		rev, err := solveLP(p)
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
			ri, err := solveILP(p, ILPOptions{})
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
		if _, err := mo.ResolveWith(SolveOptions{}); err != nil {
			t.Fatal(err)
		}
		for probe := 0; probe < 4; probe++ {
			ci := rng.Intn(len(p.Constraints))
			mo.SetRHS(ci, big.NewRat(int64(rng.Intn(9)-2), 1))
			rs, err := mo.ResolveWith(SolveOptions{})
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
