package lp

// pricer selects the phase-1 entering rule: Dantzig (most-attractive reduced
// cost) by default for low pivot counts, falling back to Bland's least-index
// rule after a run of consecutive degenerate (zero-step) pivots so that
// termination stays guaranteed on cycling-prone instances (Beale's example
// cycles forever under pure Dantzig pricing). A nonzero step strictly
// lowers the phase-1 infeasibility, so no basis can recur across improving
// steps; within a degenerate stretch Bland's rule cannot cycle. The same
// stall counter drives the dual reentry loop's rule switch. The revised engine
// and its dense test oracle share this type and observe the identical
// pivot sequence, which keeps the rule switches (and hence the answers)
// bit-identical across them.
type pricer struct {
	stall     int  // consecutive degenerate steps
	threshold int  // stalls tolerated before switching rules
	bland     bool // least-index mode active
}

func newPricer(m, n int) pricer {
	th := 2 * (m + n)
	if th < 32 {
		th = 32
	}
	return pricer{threshold: th}
}

// observe records one pivot or bound flip; degenerate steps eventually
// switch pricing to Bland's rule, any real step switches back.
func (pr *pricer) observe(degenerate bool) {
	if !degenerate {
		pr.stall = 0
		pr.bland = false
		return
	}
	pr.stall++
	if pr.stall > pr.threshold {
		pr.bland = true
	}
}

func (pr *pricer) reset() {
	pr.stall = 0
	pr.bland = false
}
