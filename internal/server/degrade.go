package server

import (
	"sync"
	"time"

	"repro/wsp"
)

// Graceful degradation: under sustained load the server answers with a
// cheaper solve instead of an error. A sliding-window load signal (recent
// occupancy, rejections, and budget exhaustions) positions a ladder, and
// each rung trades answer cost for answer fidelity:
//
//	rung 1: exact rational arithmetic → the revised partial-pricing
//	        float engine (same pipeline, cheapest arithmetic)
//	rung 2: ContractILP → RoutePacking synthesis, and within-instance
//	        parallelism shed to sequential — under load the extra search
//	        workers only steal cores from concurrent requests, and
//	        shedding them never changes an answer, so they go before any
//	        budget does
//	rung 3: shrunken work/node budgets (fail fast instead of grinding)
//
// Degraded responses are still real, validated plans — they are labeled
// `degraded: true` with the applied rungs, never silently substituted.

// ladder thresholds: load ≥ degradeAt[i] ⇒ rung i+1.
var degradeAt = [3]float64{0.50, 0.75, 0.90}

// shrink factors applied at rung 3 to whatever budget would have run.
const (
	shrinkWork  = 2_000_000
	shrinkNodes = 20_000
)

const loadBucketCount = 16

type loadBucket struct {
	epoch     int64 // bucket start, in bucketDur units since the zero time
	admits    int64
	occSum    float64
	rejects   int64
	exhausted int64
}

// degrader accumulates load observations in a ring of time buckets and
// maps the windowed signal onto a ladder rung.
type degrader struct {
	disabled  bool
	now       func() time.Time
	bucketDur time.Duration

	mu      sync.Mutex
	buckets [loadBucketCount]loadBucket
}

func newDegrader(cfg Config) *degrader {
	return &degrader{
		disabled:  cfg.NoDegrade,
		now:       cfg.Now,
		bucketDur: cfg.DegradeWindow / loadBucketCount,
	}
}

// bucketAt rotates the ring to the current epoch and returns the live
// bucket. Callers hold d.mu.
func (d *degrader) bucketAt() *loadBucket {
	epoch := d.now().UnixNano() / int64(d.bucketDur)
	b := &d.buckets[epoch%loadBucketCount]
	if b.epoch != epoch {
		*b = loadBucket{epoch: epoch}
	}
	return b
}

func (d *degrader) observeAdmit(occupancy float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	b := d.bucketAt()
	b.admits++
	b.occSum += occupancy
}

func (d *degrader) observeReject() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.bucketAt().rejects++
}

func (d *degrader) observeExhausted() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.bucketAt().exhausted++
}

// load blends the window into one scalar in [0,1]: the mean in-flight
// occupancy at admission time, raised by the fraction of requests that
// were rejected or ran out of solver budget. An idle window reads 0.
func (d *degrader) load() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	live := d.now().UnixNano()/int64(d.bucketDur) - loadBucketCount + 1
	var admits, rejects, exhausted int64
	var occSum float64
	for i := range d.buckets {
		b := &d.buckets[i]
		if b.epoch < live {
			continue // stale ring slot from a past window
		}
		admits += b.admits
		rejects += b.rejects
		exhausted += b.exhausted
		occSum += b.occSum
	}
	total := admits + rejects
	if total == 0 {
		return 0
	}
	occ := occSum / float64(max(admits, 1))
	pressure := float64(rejects+exhausted) / float64(total)
	if pressure > 1 {
		pressure = 1
	}
	if pressure > occ {
		return pressure
	}
	return occ
}

// rung maps the current load to a ladder position (0 = no degradation).
func (d *degrader) rung() int {
	if d.disabled {
		return 0
	}
	l := d.load()
	r := 0
	for _, at := range degradeAt {
		if l >= at {
			r++
		}
	}
	return r
}

// degradeConfig applies ladder rung r to a resolved solver config and
// reports the applied steps (empty ⇒ the config ran exactly as requested).
func degradeConfig(cfg wsp.Config, r int) (wsp.Config, []string) {
	var steps []string
	if r >= 1 && cfg.Exact {
		cfg.Exact = false
		// The float rung rides the partial-pricing float engine: clear the
		// exact-side hybrid mode and root cuts, so the degraded solve is
		// the cheap one.
		cfg.Hybrid = false
		cfg.RootCuts = false
		steps = append(steps, "float-arith")
	}
	if r >= 2 && cfg.Strategy == wsp.ContractILP {
		cfg.Strategy = wsp.RoutePacking
		steps = append(steps, "route-packing")
	}
	if r >= 2 && cfg.SearchParallel > 1 {
		// Shed within-instance workers BEFORE touching budgets: dropping to
		// the sequential search returns the bit-identical answer (just
		// slower for this one request), while a shrunken budget can change
		// it — so parallelism is always the first sacrifice.
		cfg.SearchParallel = 0
		steps = append(steps, "search-shed")
	}
	if r >= 3 {
		if cfg.WorkBudget == 0 || cfg.WorkBudget > shrinkWork {
			cfg.WorkBudget = shrinkWork
		}
		if cfg.NodeBudget == 0 || cfg.NodeBudget > shrinkNodes {
			cfg.NodeBudget = shrinkNodes
		}
		cfg.MaxAttempts = 1
		steps = append(steps, "budget-shrink")
	}
	return cfg, steps
}
