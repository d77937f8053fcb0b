package steiner

import (
	"runtime"
	"sync/atomic"
)

// minSplit is how many candidates Tree needs for each helper it starts.
// A net with fewer, up to about 16 pins, runs on the calling goroutine
// alone: a phase holds too little work to repay handing blocks to another
// goroutine. A small net on a machine with many processors wakes only a
// few of them.
const minSplit = 256

// phase names the per-candidate work of one pass over a round's candidates.
// Each item writes only its own slots, so the items of a phase may run in
// any order and on any goroutine.
type phase int

const (
	phaseStars    phase = iota // initStars: stars[i]
	phaseAccept                // offer: stars[k]
	phaseEstimate              // estimateRange: stars[i]'s weights, est[i]
	phaseRecheck               // exact[j] for candidates[contenders[j]]
)

// blockSize is how many items of each phase one claim takes: a block of
// estimates or rechecks costs some microseconds, and a star update some
// nanoseconds.
var blockSize = [...]int{
	phaseStars:    32,
	phaseAccept:   256,
	phaseEstimate: 32,
	phaseRecheck:  4,
}

// The crew's word packs the phase's block count and its next unclaimed
// block. A claim is a compare-and-swap of the whole word; a word whose
// next block is past its count has nothing to claim.
const (
	blockBits = 24
	blockMask = 1<<blockBits - 1
)

// spinYield is how many times the caller checks a count it waits for
// before it yields its processor on each further check. A helper finishes
// a block, or sees the crew stop, within microseconds; waiting that long
// without yielding keeps the caller on its processor, and its caches, for
// the rest of the request.
const spinYield = 1 << 14

// crew is the helper goroutines of one Tree call. They start with the
// call, claim blocks of each phase the caller publishes and spin through
// runtime.Gosched between phases, so a phase costs no wake-up; the caller
// stops them and waits until every one has finished before the call
// returns. Between phases only the caller touches the search.
type crew struct {
	running  atomic.Int32 // helpers that may still touch the search
	stopping atomic.Bool  // the call is over: helpers return

	// The caller's phase: set before word publishes it, read by a helper
	// only after its claim succeeded, so while the caller waits for it.
	kind  phase
	items int

	word atomic.Uint64 // blocks<<blockBits | next
	done atomic.Int64  // blocks of the phase finished
}

// start gives s one recheck scratch per worker and starts workers−1
// helpers.
func (s *search) start(workers int) {
	s.rechecks = resize(s.rechecks, workers, workers)
	helpers := s.rechecks[1:]
	if len(helpers) == 0 {
		return
	}
	c := &s.crew
	c.word.Store(0) // no phase yet
	c.stopping.Store(false)
	c.running.Store(int32(len(helpers)))
	for h := range helpers {
		go s.help(&helpers[h])
	}
}

// stop stops s's helpers and waits until none touches s any more.
func (s *search) stop() {
	c := &s.crew
	if len(s.rechecks) == 1 {
		return
	}
	c.stopping.Store(true)
	for spin := 0; c.running.Load() > 0; spin++ {
		if spin >= spinYield {
			runtime.Gosched()
		}
	}
}

// help is a helper's loop: it claims blocks until the crew stops, with r
// as its recheck scratch.
func (s *search) help(r *recheck) {
	c := &s.crew
	for !c.stopping.Load() {
		s.claim(r)
		runtime.Gosched()
	}
	c.running.Add(-1)
}

// split runs items 0..n-1 of phase k and returns once all are done. With
// no helpers, or when one block holds every item, the caller runs them
// alone; otherwise it publishes the phase, claims blocks itself, and then
// waits only for the blocks a helper has claimed. It never parks: a
// parked caller would be woken on the helper's processor.
func (s *search) split(k phase, n int) {
	c := &s.crew
	if len(s.rechecks) == 1 || n <= blockSize[k] {
		s.work(k, 0, n, &s.rechecks[0])
		return
	}
	blocks := int64((n + blockSize[k] - 1) / blockSize[k])
	c.kind, c.items = k, n
	c.done.Store(0)
	c.word.Store(uint64(blocks) << blockBits)
	s.claim(&s.rechecks[0])
	for spin := 0; c.done.Load() < blocks; spin++ {
		if spin >= spinYield {
			runtime.Gosched()
		}
	}
}

// claim runs blocks of the published phase, with r as the recheck
// scratch, until none is left unclaimed.
func (s *search) claim(r *recheck) {
	c := &s.crew
	for {
		w := c.word.Load()
		next, blocks := w&blockMask, w>>blockBits&blockMask
		if next >= blocks {
			return
		}
		if !c.word.CompareAndSwap(w, w+1) {
			continue
		}
		size := blockSize[c.kind]
		lo := int(next) * size
		s.work(c.kind, lo, min(lo+size, c.items), r)
		c.done.Add(1)
	}
}

// work runs items lo..hi-1 of phase k, with r as the recheck scratch.
func (s *search) work(k phase, lo, hi int, r *recheck) {
	switch k {
	case phaseStars:
		s.initStars(lo, hi)
	case phaseAccept:
		s.offer(lo, hi)
	case phaseEstimate:
		s.estimateRange(lo, hi)
	case phaseRecheck:
		for j := lo; j < hi; j++ {
			s.exact[j] = s.prefix.costWithIn(r, s.points, s.candidates[s.contenders[j]])
		}
	}
}
