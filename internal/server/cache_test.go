package server

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/wsp"
)

func newTestCache(sigCap, perSig int) *scratchCache {
	met := &metrics{}
	return newScratchCache(Config{CacheSignatures: sigCap, CachePerSignature: perSig}.withDefaults(), met)
}

// TestCacheCheckoutNeverBlocks: while a signature's only scratch is out, a
// second checkout on it returns a distinct cold scratch at once instead of
// waiting for the first to come back; both then return warm, up to the
// per-signature bound.
func TestCacheCheckoutNeverBlocks(t *testing.T) {
	c := newTestCache(4, 1)
	first := c.checkout("sig")
	second := c.checkout("sig")
	if second == first {
		t.Fatal("a scratch still checked out was handed out twice")
	}
	if hits, misses := c.met.cacheHits.Load(), c.met.cacheMisses.Load(); hits != 0 || misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 0 and 2", hits, misses)
	}
	c.release("sig", first)
	c.release("sig", second) // over the per-signature bound: dropped
	if got := c.checkout("sig"); got != first {
		t.Error("warm scratch not reused")
	}
	if got := c.checkout("sig"); got == first || got == second {
		t.Error("the per-signature bound kept a second idle scratch")
	}
}

// TestCacheConcurrentCheckouts: goroutines checking scratches out of and
// back into a small cache never share one, and every checkout is counted
// once (run under -race).
func TestCacheConcurrentCheckouts(t *testing.T) {
	c := newTestCache(2, 2)
	var mu sync.Mutex
	out := make(map[*wsp.Scratch]bool)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sig := fmt.Sprint("sig", (g+i)%3)
				sc := c.checkout(sig)
				mu.Lock()
				if out[sc] {
					t.Error("one scratch checked out twice at once")
				}
				out[sc] = true
				mu.Unlock()
				runtime.Gosched() // hold it while the others run
				mu.Lock()
				delete(out, sc)
				mu.Unlock()
				c.release(sig, sc)
			}
		}()
	}
	wg.Wait()
	if n := c.met.cacheHits.Load() + c.met.cacheMisses.Load(); n != 8*50 {
		t.Errorf("%d checkouts counted, want %d", n, 8*50)
	}
	if len(c.entries) > 2 {
		t.Errorf("%d signatures cached, cap 2", len(c.entries))
	}
}

// TestCacheEvictsLRU: signatures beyond the cap are evicted least-recently
// used; a released scratch for an evicted signature is dropped silently.
func TestCacheEvictsLRU(t *testing.T) {
	c := newTestCache(2, 2)
	a := c.checkout("a")
	c.release("a", a)
	b := c.checkout("b")
	c.release("b", b)
	a2 := c.checkout("a") // refresh a: b is now stalest
	c.release("a", a2)
	if a2 != a {
		t.Fatal("warm scratch not reused within cap")
	}

	x := c.checkout("x") // third signature: b evicted
	c.release("x", x)
	if c.met.cacheEvictions.Load() != 1 {
		t.Fatalf("evictions = %d, want 1", c.met.cacheEvictions.Load())
	}
	if _, ok := c.entries["b"]; ok {
		t.Error("b survived eviction; LRU order broken")
	}
	if _, ok := c.entries["a"]; !ok {
		t.Error("a (recently used) was evicted")
	}

	// Releasing into an evicted signature must not resurrect it.
	c.release("b", wsp.NewScratch())
	if _, ok := c.entries["b"]; ok {
		t.Error("release resurrected an evicted signature")
	}
}
