package detect

import "repro/internal/clock"

// Clocks is the happens-before core every detector in the repository runs
// on: one vector clock per thread, one per sync object, and the
// fork/join/acquire/release transfer between them (DESIGN.md §12). Detector
// and VCDetector embed it; the streaming server drives one directly and
// hands each access a Snapshot of its thread's clock.
//
// Snapshots are copy-on-write: handing one out marks the thread's clock
// shared, and the next operation that would mutate it clones it first
// (clock.Clone shares the immutable sparse base, so a clone is O(live
// entries)). A snapshot therefore never changes after it is taken and may be
// read concurrently with later sync operations.
type Clocks struct {
	threads []*clock.VC
	shared  []bool // shared[i]: threads[i] has outstanding snapshots (grown by Snapshot only)
	syncs   vcTable

	refDense      bool
	stats         *clock.Stats // shared by every clock this core creates
	base          *clock.Base  // current epoch-collapse base (nil before first round)
	collapseEvery int
	sinceCollapse int
	buf           []*clock.VC
}

// NewClocks returns an empty happens-before core with the given clock
// configuration.
func NewClocks(cfg Config) *Clocks {
	h := new(Clocks)
	h.init(cfg)
	return h
}

func (h *Clocks) init(cfg Config) {
	h.refDense = cfg.RefDense
	h.stats = new(clock.Stats)
	h.collapseEvery = cfg.CollapseEvery
	if h.collapseEvery == 0 {
		h.collapseEvery = DefaultCollapseEvery
	}
	if !cfg.RefDense {
		h.syncs.mk = h.newClock
	}
}

// clocks gives the package-level sync helpers (AcquireKind, ReleaseKind)
// access to the core of any detector that embeds it.
func (h *Clocks) clocks() *Clocks { return h }

// newClock builds a thread/sync/per-variable clock in the configured
// representation.
func (h *Clocks) newClock() *clock.VC {
	if h.refDense {
		return clock.New(0)
	}
	return clock.NewSparse(h.stats)
}

// ClockStats returns the sparse-representation transition counters; the
// runtimes fold them into observability at Finish.
func (h *Clocks) ClockStats() clock.Stats { return *h.stats }

// NumThreads returns the thread-table length: the capacity hint FastTrack
// passes to shadow.Memory.Inflate (capacity only — never affects results).
func (h *Clocks) NumThreads() int { return len(h.threads) }

// thread returns tid's clock. The fast path is small enough to inline into
// the detectors' access wrappers.
func (h *Clocks) thread(tid clock.TID) *clock.VC {
	if int(tid) < len(h.threads) && h.threads[tid] != nil {
		return h.threads[tid]
	}
	return h.newThread(tid)
}

func (h *Clocks) newThread(tid clock.TID) *clock.VC {
	if int(tid) >= len(h.threads) {
		nt := make([]*clock.VC, int(tid)+1)
		copy(nt, h.threads)
		h.threads = nt
	}
	var v *clock.VC
	if h.refDense {
		v = clock.New(int(tid) + 1)
	} else {
		v = clock.NewSparse(h.stats)
	}
	v.Tick(tid) // a thread's own component starts at 1
	h.threads[tid] = v
	return v
}

// mutable returns tid's clock for in-place mutation, cloning it first if a
// snapshot of it is still outstanding.
func (h *Clocks) mutable(tid clock.TID) *clock.VC {
	v := h.thread(tid)
	if int(tid) < len(h.shared) && h.shared[tid] {
		v = v.Clone()
		h.threads[tid] = v
		h.shared[tid] = false
	}
	return v
}

// Snapshot returns tid's current clock as an immutable snapshot: the caller
// may read it concurrently, and the core never mutates it again. Between
// two sync operations of a thread every snapshot is the same clock, so
// snapshot traffic scales with sync density, not access density.
func (h *Clocks) Snapshot(tid clock.TID) *clock.VC {
	v := h.thread(tid)
	if int(tid) >= len(h.shared) {
		h.shared = append(h.shared, make([]bool, len(h.threads)-len(h.shared))...)
	}
	h.shared[tid] = true
	return v
}

// ThreadVC exposes tid's current clock (read-only use expected). The TxRace
// runtime consults it when attributing fast/slow overlap.
func (h *Clocks) ThreadVC(tid clock.TID) *clock.VC { return h.thread(tid) }

// Fork records that parent spawned child: the child inherits everything the
// parent has seen so far.
func (h *Clocks) Fork(parent, child clock.TID) {
	p, c := h.mutable(parent), h.mutable(child)
	c.Join(p)
	c.Tick(child)
	p.Tick(parent)
}

// Join records that parent observed child's termination.
func (h *Clocks) Join(parent, child clock.TID) {
	p, c := h.mutable(parent), h.mutable(child)
	p.Join(c)
	c.Tick(child)
}

// JoinAllChildren records parent observing the termination of every child in
// one batched operation: with sparse clocks the N-way merge is a single
// tournament over the sorted entry lists (clock.JoinAll) instead of N
// sequential O(T) joins. Semantically identical to calling Join per child.
func (h *Clocks) JoinAllChildren(parent clock.TID, children []clock.TID) {
	p := h.mutable(parent)
	h.buf = h.buf[:0]
	for _, c := range children {
		h.buf = append(h.buf, h.thread(c))
	}
	clock.JoinAll(p, h.buf)
	for _, c := range children {
		h.mutable(c).Tick(c)
	}
}

// Acquire records tid synchronizing-with prior releases of s (lock acquire,
// condition wait return, barrier departure).
func (h *Clocks) Acquire(tid clock.TID, s SyncID) {
	h.mutable(tid).Join(h.syncs.get(s))
}

// Release records tid publishing its history through s (lock release,
// signal, barrier arrival). The sync clock joins rather than assigns so the
// same primitive serves mutexes, semaphore-style condvars, and barriers
// without manufacturing false happens-before edges.
func (h *Clocks) Release(tid clock.TID, s SyncID) {
	t := h.mutable(tid)
	h.syncs.get(s).Join(t)
	t.Tick(tid)
	h.maybeCollapse()
}

func (h *Clocks) maybeCollapse() {
	if h.refDense || h.collapseEvery < 0 {
		return
	}
	h.sinceCollapse++
	if h.sinceCollapse < h.collapseEvery || len(h.threads) < collapseMinThreads {
		return
	}
	h.sinceCollapse = 0
	h.Collapse()
}

// Collapse runs one epoch-collapse round: a new shared base is computed at
// the pointwise minimum of all thread clocks (clock.NextBase) and the thread
// clocks are re-expressed against it, so each ends up carrying entries only
// for components where it is ahead of the floor — idle threads' slots are
// reclaimed and Len() tracks live threads again. Sync clocks are never
// eagerly rebased; they adopt newer bases lazily when next joined. Runs
// automatically every CollapseEvery releases; exported for benchmarks.
func (h *Clocks) Collapse() {
	if h.refDense {
		return
	}
	h.buf = h.buf[:0]
	for tid, v := range h.threads {
		if v != nil {
			h.buf = append(h.buf, h.mutable(clock.TID(tid)))
		}
	}
	if len(h.buf) == 0 {
		return
	}
	nb := clock.NextBase(h.base, h.buf)
	for _, v := range h.buf {
		v.Rebase(nb)
	}
	h.base = nb
	h.stats.Collapses++
}
