package detect

import (
	"repro/internal/clock"
	"repro/internal/sim"
)

// rwReaderBit namespaces the auxiliary clock a reader-writer lock needs: the
// core keeps one vector clock for the write side of rwlock s (the plain
// SyncID) and one for the read side (SyncID with this bit set).
const rwReaderBit SyncID = 1 << 31

// hbCore is anything built on the happens-before core: *Clocks itself and
// every detector that embeds it.
type hbCore interface{ clocks() *Clocks }

// AcquireKind applies the happens-before semantics of a synchronization
// acquire according to its kind:
//
//   - mutex / semaphore / barrier: join the object's clock;
//   - rwlock read hold: join only the writer-side clock (readers are ordered
//     after previous writers but not after each other);
//   - rwlock write hold: join both sides (a writer is ordered after all
//     previous writers and readers).
func AcquireKind(d hbCore, tid clock.TID, s SyncID, kind sim.SyncKind) {
	h := d.clocks()
	h.Acquire(tid, s)
	if kind == sim.SyncWrite {
		h.Acquire(tid, s|rwReaderBit)
	}
}

// ReleaseKind applies the release-side semantics (see AcquireKind):
// read-unlocks publish into the reader-side clock only; write-unlocks into
// the writer-side clock.
func ReleaseKind(d hbCore, tid clock.TID, s SyncID, kind sim.SyncKind) {
	if kind == sim.SyncRead {
		s |= rwReaderBit
	}
	d.clocks().Release(tid, s)
}
