package warehouse

// feedBuffers is how many tile buffers a Feeder owns: one the producer fills
// while the goroutine checks the other.
const feedBuffers = 2

// Feeder runs a Replayer on a goroutine of its own, so a producer of tiles
// can fill the next tile while the last one is checked. It owns two tile
// buffers: Feed copies the caller's tile into a free one and queues it, and
// the goroutine feeds the queued buffers to the Replayer in order and hands
// each back. The Replayer therefore sees the same tiles in the same order as
// when fed directly, and reports the same Replay.
type Feeder struct {
	rp   *Replayer
	bufs [feedBuffers][]AgentState
	// free holds the indices of the buffers no tile occupies and queue the
	// tiles not yet checked. Each has room for every buffer, so no send on
	// either blocks.
	free  chan int
	queue chan feed
	done  chan struct{} // closed when the goroutine has stopped
	// panicked holds what Replayer.Feed panicked with, once done is closed.
	panicked any
}

// feed is one queued tile: buffer buf holds it.
type feed struct{ buf, width, steps int }

// Async starts a Feeder for rp. Feed it every timestep in order, then call
// Finish once, on every path: Finish stops the goroutine. rp must not be
// used directly after this call.
func (rp *Replayer) Async() *Feeder {
	f := &Feeder{rp: rp, free: make(chan int, feedBuffers), queue: make(chan feed, feedBuffers),
		done: make(chan struct{})}
	for i := range f.bufs {
		f.free <- i
	}
	go f.run()
	return f
}

func (f *Feeder) run() {
	defer close(f.done)
	defer func() { f.panicked = recover() }()
	for q := range f.queue {
		f.rp.Feed(f.bufs[q.buf], q.width, q.steps)
		f.free <- q.buf
	}
}

// Feed queues the tile for Replayer.Feed and returns once it has copied it,
// which waits only while both buffers hold tiles not yet checked. Like
// Replayer.Feed, it reads the tile only during the call. After
// Replayer.Feed has panicked, Feed drops the tile and returns at once;
// Finish reports the panic.
func (f *Feeder) Feed(tile []AgentState, width, steps int) {
	var i int
	select {
	case i = <-f.free:
	case <-f.done:
		return
	}
	if cap(f.bufs[i]) < len(tile) {
		PutStates(f.bufs[i])
		f.bufs[i] = GetStates(len(tile))
	}
	f.bufs[i] = f.bufs[i][:len(tile)]
	copy(f.bufs[i], tile)
	f.queue <- feed{buf: i, width: width, steps: steps}
}

// Finish waits until every queued tile is checked, stops the goroutine,
// returns the buffers to the pool and returns Replayer.Finish. If
// Replayer.Feed panicked, Finish panics with the same value instead, on the
// caller's goroutine. The Feeder must not be used again.
func (f *Feeder) Finish() Replay {
	close(f.queue)
	<-f.done
	for _, b := range f.bufs {
		PutStates(b)
	}
	if f.panicked != nil {
		panic(f.panicked)
	}
	return f.rp.Finish()
}
