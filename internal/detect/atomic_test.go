package detect

import "testing"

func TestAtomicsOrderWithEachOther(t *testing.T) {
	d := New()
	d.Atomic(0, x, 10)
	d.Atomic(1, x, 20)
	d.Atomic(2, x, 30)
	if d.RaceCount() != 0 {
		t.Fatalf("atomic RMWs reported racy: %v", d.Races())
	}
}

func TestPlainAccessRacesWithAtomic(t *testing.T) {
	d := New()
	d.Atomic(0, x, 10)
	d.Write(1, x, 20) // plain write, unordered with the atomic
	if d.RaceCount() != 1 {
		t.Fatalf("mixed atomic/plain access not flagged: %d", d.RaceCount())
	}
}

func TestAtomicPublishOrdersDependentPlainAccess(t *testing.T) {
	// The message-passing idiom: plain write, atomic store-release of a
	// flag, atomic load-acquire, plain read.
	d := New()
	d.Write(0, y, 10)  // payload
	d.Atomic(0, x, 11) // release the flag
	d.Atomic(1, x, 20) // acquire the flag
	d.Read(1, y, 21)   // consume the payload: ordered
	if d.RaceCount() != 0 {
		t.Fatalf("atomic publication did not order the payload: %v", d.Races())
	}
}

func TestAtomicsOnDifferentLocationsDoNotOrder(t *testing.T) {
	d := New()
	d.Write(0, y, 10)
	d.Atomic(0, x, 11)
	d.Atomic(1, x+1024, 20) // a different atomic location
	d.Write(1, y, 21)
	if d.RaceCount() != 1 {
		t.Fatalf("unrelated atomics must not create ordering: %d races", d.RaceCount())
	}
}
