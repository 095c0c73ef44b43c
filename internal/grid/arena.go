package grid

import "sync"

// Pool recycles []T scratch buffers. The slices travel in *[]T holders,
// and emptied holders wait in a second pool, so a Get/Put pair allocates
// nothing once both pools are warm. The zero Pool is ready to use.
type Pool[T any] struct{ bufs, holders sync.Pool }

// Get returns a []T of length n, reusing a pooled buffer when one is large
// enough. Its contents are arbitrary. Return it with Put when done; failing
// to do so merely leaks it to the garbage collector.
func (p *Pool[T]) Get(n int) []T {
	bp, _ := p.bufs.Get().(*[]T)
	if bp == nil {
		return make([]T, n)
	}
	b := *bp
	*bp = nil
	p.holders.Put(bp)
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// Put returns a buffer obtained from Get to the pool. The buffer must not
// be used after Put.
func (p *Pool[T]) Put(b []T) {
	if cap(b) == 0 {
		return
	}
	bp, _ := p.holders.Get().(*[]T)
	if bp == nil {
		bp = new([]T)
	}
	*bp = b
	p.bufs.Put(bp)
}

// int32Pool recycles vertex-indexed scratch buffers across simulation and
// realization runs (and across the core.Solve retry loop).
var int32Pool Pool[int32]

// GetInt32 returns a zeroed []int32 of length n from the pool. Callers
// that use the stamp/epoch idiom rely on the zeroing: a fresh buffer
// compares unequal to any positive stamp. Return the buffer with PutInt32
// when done.
func GetInt32(n int) []int32 {
	b := int32Pool.Get(n)
	clear(b)
	return b
}

// PutInt32 returns a buffer obtained from GetInt32 to the pool. The buffer
// must not be used after Put.
func PutInt32(b []int32) { int32Pool.Put(b) }
