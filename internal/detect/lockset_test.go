package detect

import (
	"testing"

	"repro/internal/sim"
)

func TestLocksetCatchesUnlockedSharing(t *testing.T) {
	d := NewLockset()
	d.Access(0, x, true, 10)
	d.Access(1, x, true, 20)
	if d.RaceCount() != 1 {
		t.Fatalf("violations = %d, want 1", d.RaceCount())
	}
	v := d.Races()[0]
	if v.Key() != (PairKey{10, 20}) {
		t.Fatalf("violation pair %+v", v)
	}
}

func TestLocksetConsistentDisciplineClean(t *testing.T) {
	d := NewLockset()
	mu := SyncID(1)
	for tid := int32(0); tid < 3; tid++ {
		d.Acquire(clockTID(tid), mu, sim.SyncMutex)
		d.Access(clockTID(tid), x, true, 10+shadowSite(clockTID(tid)))
		d.Release(clockTID(tid), mu, sim.SyncMutex)
	}
	if d.RaceCount() != 0 {
		t.Fatalf("consistent locking flagged: %v", d.Races())
	}
}

func TestLocksetCandidateIntersection(t *testing.T) {
	// Thread 0 protects x with {A,B}; thread 1 with {B}; thread 2 with {A}:
	// the candidate set empties at thread 2 → violation.
	d := NewLockset()
	a, b := SyncID(1), SyncID(2)
	d.Acquire(0, a, sim.SyncMutex)
	d.Acquire(0, b, sim.SyncMutex)
	d.Access(0, x, true, 10)
	d.Release(0, a, sim.SyncMutex)
	d.Release(0, b, sim.SyncMutex)

	d.Acquire(1, b, sim.SyncMutex)
	d.Access(1, x, true, 20)
	d.Release(1, b, sim.SyncMutex)
	if d.RaceCount() != 0 {
		t.Fatalf("C(v)={B} still non-empty, but flagged: %v", d.Races())
	}

	d.Acquire(2, a, sim.SyncMutex)
	d.Access(2, x, true, 30)
	d.Release(2, a, sim.SyncMutex)
	if d.RaceCount() != 1 {
		t.Fatalf("emptied candidate set not flagged: %d", d.RaceCount())
	}
}

func TestLocksetExclusivePhaseSilent(t *testing.T) {
	// Single-thread use, even unlocked, is never flagged (virgin/exclusive).
	d := NewLockset()
	for i := 0; i < 10; i++ {
		d.Access(0, x, true, 10)
	}
	if d.RaceCount() != 0 {
		t.Fatal("exclusive accesses flagged")
	}
}

func TestLocksetReadSharingWithoutWritesSilent(t *testing.T) {
	d := NewLockset()
	d.Access(0, x, false, 10)
	d.Access(1, x, false, 20)
	d.Access(2, x, false, 30)
	if d.RaceCount() != 0 {
		t.Fatal("read-only sharing flagged")
	}
}

// TestLocksetFalsePositiveOnSignalWait is the classic Eraser failure the
// paper's §9 discussion alludes to: producer/consumer ordering through a
// condition variable is real synchronization, but carries no locks — the
// lockset detector flags it, the happens-before detector does not.
func TestLocksetFalsePositiveOnSignalWait(t *testing.T) {
	ls := NewLockset()
	ls.Access(0, x, true, 10)
	// signal → wait happens here; Eraser cannot see it.
	ls.Access(1, x, true, 20)
	if ls.RaceCount() != 1 {
		t.Fatalf("expected the false positive, got %d", ls.RaceCount())
	}

	hb := New()
	hb.Write(0, x, 10)
	hb.Release(0, SyncID(3))
	hb.Acquire(1, SyncID(3))
	hb.Write(1, x, 20)
	if hb.RaceCount() != 0 {
		t.Fatal("happens-before detector must accept signal/wait ordering")
	}
}

func TestLocksetRWLockDiscipline(t *testing.T) {
	// Readers holding the rwlock in read mode + writer in write mode is a
	// consistent discipline.
	d := NewLockset()
	l := SyncID(7)
	d.Acquire(0, l, sim.SyncWrite)
	d.Access(0, x, true, 10)
	d.Release(0, l, sim.SyncWrite)
	d.Acquire(1, l, sim.SyncRead)
	d.Access(1, x, false, 20)
	d.Release(1, l, sim.SyncRead)
	if d.RaceCount() != 0 {
		t.Fatalf("rwlock discipline flagged: %v", d.Races())
	}
	// ...but writing under only a read hold is a violation when another
	// thread writes too.
	d.Acquire(2, l, sim.SyncRead)
	d.Access(2, x, true, 30)
	d.Release(2, l, sim.SyncRead)
	if d.RaceCount() != 1 {
		t.Fatalf("write under read hold not flagged: %d", d.RaceCount())
	}
}

func TestLocksetChecksCounter(t *testing.T) {
	d := NewLockset()
	d.Access(0, x, true, 1)
	d.Access(0, y, false, 2)
	if d.Checks != 2 {
		t.Fatalf("checks = %d", d.Checks)
	}
}
