package calibrate

import (
	"context"
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"repro/internal/datasets"
)

// Spec is a knob grid to search. Each axis lists the values to try; an
// empty axis keeps Base's value (so the zero Spec measures Base alone).
// The grid is the cross product of all axes.
type Spec struct {
	// Base supplies every knob not being swept.
	Base Knobs
	// WorkBudgets values for the per-attempt work cap (0 = default).
	WorkBudgets []int64
	// NodeBudgets values for the per-attempt node cap (0 = default).
	NodeBudgets []int
	// SearchWidths values for branch-and-bound worker width.
	SearchWidths []int
}

// Candidate is one evaluated grid point.
type Candidate struct {
	Knobs     Knobs   `json:"knobs"`
	Instances int     `json:"instances"`
	Solved    int     `json:"solved"`
	SolveRate float64 `json:"solve_rate"`
	// Budget counts instances stopped by work/node budget exhaustion.
	Budget int `json:"budget"`
	// Work is total deterministic simplex work across the corpus.
	Work int64 `json:"work"`
	// Score is the deterministic ranking metric: solve rate out of 100
	// with a penalty per budget-stopped instance. Wall time never enters.
	Score float64 `json:"score"`
	// Millis is total wall-clock latency (informational; never scored).
	Millis float64 `json:"millis"`
}

// Table is a scored calibration result: candidates sorted best-first
// under a deterministic total order, with the winner's knobs pinned.
type Table struct {
	Candidates  []Candidate `json:"candidates"`
	Recommended Knobs       `json:"recommended"`
}

// score computes the deterministic candidate score: each solved instance
// is worth 100/n points, each budget-stopped instance forfeits 25/n —
// exhausting a limit is worse than a clean infeasibility verdict because
// it proves nothing and wasted the whole budget doing so.
func score(solved, budget, n int) float64 {
	if n == 0 {
		return 0
	}
	return (100*float64(solved) - 25*float64(budget)) / float64(n)
}

// less is the deterministic candidate total order: score descending, then
// deterministic work ascending, then cheaper knobs (narrower search,
// smaller budgets). Latency is deliberately absent — two runs of the same
// grid must order candidates identically.
func less(a, b Candidate) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	if a.Work != b.Work {
		return a.Work < b.Work
	}
	ka, kb := a.Knobs, b.Knobs
	if ka.SearchParallel != kb.SearchParallel {
		return ka.SearchParallel < kb.SearchParallel
	}
	if ka.WorkBudget != kb.WorkBudget {
		return ka.WorkBudget < kb.WorkBudget
	}
	return ka.NodeBudget < kb.NodeBudget
}

// grid expands the spec's cross product into concrete knob sets.
func (s Spec) grid() []Knobs {
	workBudgets := s.WorkBudgets
	if len(workBudgets) == 0 {
		workBudgets = []int64{s.Base.WorkBudget}
	}
	nodeBudgets := s.NodeBudgets
	if len(nodeBudgets) == 0 {
		nodeBudgets = []int{s.Base.NodeBudget}
	}
	widths := s.SearchWidths
	if len(widths) == 0 {
		widths = []int{s.Base.SearchParallel}
	}
	var out []Knobs
	for _, wb := range workBudgets {
		for _, nb := range nodeBudgets {
			for _, sw := range widths {
				k := s.Base
				k.WorkBudget = wb
				k.NodeBudget = nb
				k.SearchParallel = sw
				out = append(out, k)
			}
		}
	}
	return out
}

// Calibrate evaluates every grid point of spec over the corpus and
// returns the scored table. Scoring uses only deterministic quantities
// (verdicts and work), so the same corpus and spec always recommend the
// same knobs — pinned by TestCalibrateStable. The sort is stable over a
// deterministic enumeration order, making ties reproducible too.
func Calibrate(ctx context.Context, insts []*datasets.Instance, spec Spec) (*Table, error) {
	points := spec.grid()
	if len(points) == 0 {
		return nil, fmt.Errorf("calibrate: empty knob grid")
	}
	t := &Table{}
	for i, k := range points {
		rep := Run(ctx, insts, k, fmt.Sprintf("cand-%d", i), 0)
		c := Candidate{Knobs: k, Instances: len(rep.Instances)}
		for _, ir := range rep.Instances {
			switch ir.Verdict {
			case VerdictSolved:
				c.Solved++
			case VerdictBudget:
				c.Budget++
			}
			c.Work += ir.Work
			c.Millis += ir.Millis
		}
		if c.Instances > 0 {
			c.SolveRate = float64(c.Solved) / float64(c.Instances)
		}
		c.Score = score(c.Solved, c.Budget, c.Instances)
		t.Candidates = append(t.Candidates, c)
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("calibrate: canceled after %d of %d candidates: %w", i+1, len(points), err)
		}
	}
	sort.SliceStable(t.Candidates, func(i, j int) bool { return less(t.Candidates[i], t.Candidates[j]) })
	t.Recommended = t.Candidates[0].Knobs
	return t, nil
}

// Format renders the table for terminals, best candidate first.
func (t *Table) Format(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "score\tsolved\tbudget\twork\tmaxwork\tmaxnodes\twidth\tms")
	for _, c := range t.Candidates {
		fmt.Fprintf(tw, "%.1f\t%d/%d\t%d\t%d\t%d\t%d\t%d\t%.0f\n",
			c.Score, c.Solved, c.Instances, c.Budget, c.Work,
			c.Knobs.WorkBudget, c.Knobs.NodeBudget, c.Knobs.SearchParallel, c.Millis)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	k := t.Recommended
	_, err := fmt.Fprintf(w, "\nrecommended: maxwork=%d maxnodes=%d width=%d (strategy=%s)\n",
		k.WorkBudget, k.NodeBudget, k.SearchParallel, strategyName(k.Strategy))
	return err
}
