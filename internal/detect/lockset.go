package detect

import (
	"repro/internal/clock"
	"repro/internal/memmodel"
	"repro/internal/shadow"
	"repro/internal/sim"
)

// LocksetDetector implements Eraser's lockset algorithm (Savage et al.,
// SOSP '97) — the lock-discipline baseline the paper's related-work section
// contrasts happens-before detection against (§9): it infers races from
// violations of a consistent-locking discipline rather than from event
// ordering.
//
// Because it knows nothing about fork/join, signal/wait, or barriers, it is
// sound for lock-based programs but *incomplete*: condition-variable and
// fork/join synchronization produce false positives that the
// happens-before detectors in this package do not. TestLocksetFalsePositive*
// demonstrate exactly those, which is the reason TxRace builds on a
// vector-clock slow path instead.
type LocksetDetector struct {
	// Thread ids are small and dense, so the per-thread held-lock sets are
	// slices indexed by TID (grown on demand).
	heldWrite []map[SyncID]struct{} // mutexes + write holds
	heldRead  []map[SyncID]struct{} // + read holds

	vars shadow.PageTable[locksetVar]
	// RaceLog holds the distinct lock-discipline violations in
	// first-detection order.
	RaceLog
	Checks uint64
}

type varState uint8

const (
	lsVirgin varState = iota
	lsExclusive
	lsShared
	lsSharedModified
)

type locksetVar struct {
	state    varState
	owner    clock.TID
	cand     map[SyncID]struct{} // C(v): candidate lockset
	lastSite shadow.SiteID
	lastTID  clock.TID
	lastWr   bool
	reported bool
}

// NewLockset returns an empty lockset detector.
func NewLockset() *LocksetDetector { return &LocksetDetector{} }

func (d *LocksetDetector) set(write bool, tid clock.TID) map[SyncID]struct{} {
	m := &d.heldRead
	if write {
		m = &d.heldWrite
	}
	if int(tid) >= len(*m) {
		nm := make([]map[SyncID]struct{}, int(tid)+1)
		copy(nm, *m)
		*m = nm
	}
	s := (*m)[tid]
	if s == nil {
		s = make(map[SyncID]struct{})
		(*m)[tid] = s
	}
	return s
}

// Acquire records a lock acquisition of the given kind. Semaphore and
// barrier events are deliberately ignored — Eraser's blind spot.
func (d *LocksetDetector) Acquire(tid clock.TID, s SyncID, kind sim.SyncKind) {
	switch kind {
	case sim.SyncMutex, sim.SyncWrite:
		d.set(true, tid)[s] = struct{}{}
		d.set(false, tid)[s] = struct{}{}
	case sim.SyncRead:
		d.set(false, tid)[s] = struct{}{}
	}
}

// Release records a lock release.
func (d *LocksetDetector) Release(tid clock.TID, s SyncID, kind sim.SyncKind) {
	switch kind {
	case sim.SyncMutex, sim.SyncWrite:
		delete(d.set(true, tid), s)
		delete(d.set(false, tid), s)
	case sim.SyncRead:
		delete(d.set(false, tid), s)
	}
}

func intersect(c map[SyncID]struct{}, held map[SyncID]struct{}) {
	for l := range c {
		if _, ok := held[l]; !ok {
			delete(c, l)
		}
	}
}

func copySet(src map[SyncID]struct{}) map[SyncID]struct{} {
	out := make(map[SyncID]struct{}, len(src))
	for k := range src {
		out[k] = struct{}{}
	}
	return out
}

// Access runs Eraser's state machine for one access.
func (d *LocksetDetector) Access(tid clock.TID, addr memmodel.Addr, isWrite bool, site shadow.SiteID) {
	d.Checks++
	// The zero locksetVar is exactly the Virgin state, so first touch of a
	// paged slot needs no initialization.
	v := d.vars.Get(memmodel.WordOf(addr))
	held := d.set(isWrite, tid)

	switch v.state {
	case lsVirgin:
		v.state = lsExclusive
		v.owner = tid
	case lsExclusive:
		if tid == v.owner {
			break
		}
		v.cand = copySet(held)
		if isWrite || v.lastWr {
			v.state = lsSharedModified
		} else {
			v.state = lsShared
		}
		d.check(v, addr, tid, isWrite, site)
	case lsShared:
		intersect(v.cand, held)
		if isWrite {
			v.state = lsSharedModified
			d.check(v, addr, tid, isWrite, site)
		}
	case lsSharedModified:
		intersect(v.cand, held)
		d.check(v, addr, tid, isWrite, site)
	}
	v.lastSite, v.lastTID, v.lastWr = site, tid, isWrite
}

func (d *LocksetDetector) check(v *locksetVar, addr memmodel.Addr, tid clock.TID, isWrite bool, site shadow.SiteID) {
	if v.state != lsSharedModified || len(v.cand) != 0 || v.reported {
		return
	}
	v.reported = true
	d.report(Race{Addr: addr, PrevSite: v.lastSite, CurSite: site,
		PrevWrite: v.lastWr, CurWrite: isWrite, PrevTID: v.lastTID, CurTID: tid}, d.Checks)
}
