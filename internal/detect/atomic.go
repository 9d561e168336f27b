package detect

import (
	"repro/internal/clock"
	"repro/internal/memmodel"
	"repro/internal/shadow"
)

// atomicSyncBit namespaces the per-location synchronization clocks that
// atomic operations use, keeping them apart from program sync objects and
// the rwlock reader clocks.
const atomicSyncBit SyncID = 1 << 30

// atomicSyncID maps an atomic location to its synchronization clock.
// Locations are word-granular, folded into the id space; a fold collision
// between two atomic locations only adds (true-but-unneeded) ordering
// between atomics, never hides a race between plain accesses.
func atomicSyncID(a memmodel.Addr) SyncID {
	g := memmodel.WordOf(a)
	return atomicSyncBit | (SyncID(g) & (atomicSyncBit - 1))
}

// Atomic applies C++11 atomic RMW semantics to the detector: the operation
// acquires and releases the location's synchronization clock (ordering with
// every other atomic on it) and leaves a shadow write so *plain* accesses
// unordered with it are still reported as races — the mixed atomic/plain
// access rule.
func (d *Detector) Atomic(tid clock.TID, addr memmodel.Addr, site shadow.SiteID) {
	s := atomicSyncID(addr)
	d.Acquire(tid, s)
	d.Write(tid, addr, site)
	d.Release(tid, s)
}

// Atomic is Detector.Atomic over the bounded cells.
func (d *CellDetector) Atomic(tid clock.TID, addr memmodel.Addr, site shadow.SiteID) {
	s := atomicSyncID(addr)
	d.Acquire(tid, s)
	d.Access(tid, addr, true, site)
	d.Release(tid, s)
}
