package detect

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/memmodel"
	"repro/internal/shadow"
)

const (
	x  = memmodel.Addr(0x1000)
	y  = memmodel.Addr(0x2000)
	mu = SyncID(1)
)

func TestWriteWriteRace(t *testing.T) {
	d := New()
	d.Write(0, x, 10)
	d.Write(1, x, 20)
	if d.RaceCount() != 1 {
		t.Fatalf("races = %d, want 1", d.RaceCount())
	}
	r := d.Races()[0]
	if !r.PrevWrite || !r.CurWrite || r.Key() != (PairKey{10, 20}) {
		t.Fatalf("bad race %+v", r)
	}
}

func TestWriteReadRace(t *testing.T) {
	d := New()
	d.Write(0, x, 10)
	d.Read(1, x, 20)
	if d.RaceCount() != 1 {
		t.Fatalf("races = %d, want 1", d.RaceCount())
	}
	r := d.Races()[0]
	if !r.PrevWrite || r.CurWrite {
		t.Fatalf("want write→read race, got %+v", r)
	}
}

func TestReadWriteRace(t *testing.T) {
	d := New()
	d.Read(0, x, 10)
	d.Write(1, x, 20)
	if d.RaceCount() != 1 {
		t.Fatalf("races = %d, want 1", d.RaceCount())
	}
}

func TestReadReadNoRace(t *testing.T) {
	d := New()
	d.Read(0, x, 10)
	d.Read(1, x, 20)
	d.Read(2, x, 30)
	if d.RaceCount() != 0 {
		t.Fatalf("read-read reported as race: %v", d.Races())
	}
}

func TestLockOrderingSuppressesRace(t *testing.T) {
	d := New()
	d.Acquire(0, mu)
	d.Write(0, x, 10)
	d.Release(0, mu)
	d.Acquire(1, mu)
	d.Write(1, x, 20)
	d.Release(1, mu)
	if d.RaceCount() != 0 {
		t.Fatalf("lock-ordered writes reported racy: %v", d.Races())
	}
}

func TestUnrelatedLockDoesNotOrder(t *testing.T) {
	d := New()
	other := SyncID(9)
	d.Acquire(0, mu)
	d.Write(0, x, 10)
	d.Release(0, mu)
	d.Acquire(1, other)
	d.Write(1, x, 20)
	d.Release(1, other)
	if d.RaceCount() != 1 {
		t.Fatalf("different locks must not order accesses: %d", d.RaceCount())
	}
}

func TestForkOrders(t *testing.T) {
	d := New()
	d.Write(0, x, 10)
	d.Fork(0, 1)
	d.Write(1, x, 20)
	if d.RaceCount() != 0 {
		t.Fatal("fork edge ignored")
	}
}

func TestJoinOrders(t *testing.T) {
	d := New()
	d.Fork(0, 1)
	d.Write(1, x, 20)
	d.Join(0, 1)
	d.Write(0, x, 10)
	if d.RaceCount() != 0 {
		t.Fatal("join edge ignored")
	}
}

func TestSignalWaitOrders(t *testing.T) {
	// Semaphore-style: Release on signal, Acquire on wait.
	d := New()
	sem := SyncID(3)
	d.Write(0, x, 10)
	d.Release(0, sem)
	d.Acquire(1, sem)
	d.Write(1, x, 20)
	if d.RaceCount() != 0 {
		t.Fatal("signal→wait edge ignored")
	}
}

func TestReadSharedThenWriteReportsAll(t *testing.T) {
	d := New()
	d.Read(0, x, 10)
	d.Read(1, x, 11)
	d.Read(2, x, 12)
	d.Write(3, x, 20)
	// Three read-write races, one per concurrent reader.
	if d.RaceCount() != 3 {
		t.Fatalf("races = %d, want 3 (%v)", d.RaceCount(), d.Races())
	}
}

func TestWriteClearsReadsSoundly(t *testing.T) {
	// r1 by T0; w2 by T1 unordered with r1 (race reported); then w3 by T2
	// ordered after w2 races with w2, not with the cleared r1.
	d := New()
	s := SyncID(5)
	d.Read(0, x, 10)
	d.Write(1, x, 20) // race {10,20}
	d.Release(1, s)
	d.Acquire(2, s)
	d.Write(2, x, 30) // ordered after w2: no new race
	if d.RaceCount() != 1 {
		t.Fatalf("races = %d, want 1 (%v)", d.RaceCount(), d.Races())
	}
}

func TestSameEpochAccessesCheap(t *testing.T) {
	d := New()
	for i := 0; i < 10; i++ {
		d.Write(0, x, 10)
		d.Read(0, x, 11)
	}
	if d.RaceCount() != 0 {
		t.Fatal("single-thread accesses racy?")
	}
}

func TestDistinctStaticPairsCounted(t *testing.T) {
	d := New()
	d.Write(0, x, 10)
	d.Write(1, x, 20) // pair {10,20}
	d.Write(0, y, 30)
	d.Write(1, y, 40) // pair {30,40}
	if d.RaceCount() != 2 {
		t.Fatalf("races = %d, want 2", d.RaceCount())
	}
}

func TestDynamicDuplicatesDeduped(t *testing.T) {
	d := New()
	for i := 0; i < 5; i++ {
		d.Write(0, x, 10)
		d.Write(1, x, 20)
	}
	if d.RaceCount() != 1 {
		t.Fatalf("races = %d, want 1 (static dedup)", d.RaceCount())
	}
}

func TestOnRaceCallback(t *testing.T) {
	d := New()
	var got []Race
	d.OnRace(func(r Race) { got = append(got, r) })
	d.Write(0, x, 10)
	d.Write(1, x, 20)
	d.Write(0, x, 10)
	d.Write(1, x, 20)
	if len(got) != 1 {
		t.Fatalf("callback fired %d times, want 1", len(got))
	}
}

func TestRaceKeysSorted(t *testing.T) {
	d := New()
	d.Write(0, y, 30)
	d.Write(1, y, 40)
	d.Write(0, x, 20)
	d.Write(1, x, 10)
	keys := d.RaceKeys()
	if len(keys) != 2 || keys[0] != (PairKey{10, 20}) || keys[1] != (PairKey{30, 40}) {
		t.Fatalf("keys = %v", keys)
	}
}

func TestDifferentWordsNoRace(t *testing.T) {
	// Two words on the same cache line: a race detector at word
	// granularity must NOT report them — this is exactly the false-sharing
	// filtering the slow path provides (§3).
	d := New()
	d.Write(0, x, 10)
	d.Write(1, x+8, 20)
	if d.RaceCount() != 0 {
		t.Fatalf("false sharing reported as race: %v", d.Races())
	}
}

func TestBarrierMeshOrders(t *testing.T) {
	d := New()
	bar := SyncID(7)
	// Phase 1: everyone writes their token then arrives.
	d.Write(0, x, 10)
	for tid := clock.TID(0); tid < 3; tid++ {
		d.Release(tid, bar)
	}
	for tid := clock.TID(0); tid < 3; tid++ {
		d.Acquire(tid, bar)
	}
	// Phase 2: a different thread writes x — ordered by the barrier.
	d.Write(2, x, 20)
	if d.RaceCount() != 0 {
		t.Fatalf("barrier-ordered accesses racy: %v", d.Races())
	}
}

func TestCellDetectorFindsRace(t *testing.T) {
	d := NewCellDetector(4, 1)
	d.Access(0, x, true, 10)
	d.Access(1, x, true, 20)
	if d.RaceCount() != 1 {
		t.Fatalf("races = %d, want 1", d.RaceCount())
	}
	if len(d.RaceKeys()) != 1 || len(d.Races()) != 1 {
		t.Fatal("accessors inconsistent")
	}
}

func TestCellDetectorRespectsHappensBefore(t *testing.T) {
	d := NewCellDetector(4, 1)
	d.Access(0, x, true, 10)
	d.Release(0, mu)
	d.Acquire(1, mu)
	d.Access(1, x, true, 20)
	if d.RaceCount() != 0 {
		t.Fatal("ordered accesses reported racy")
	}
	d.Fork(0, 2)
	d.Join(0, 2)
}

// TestShadowEvictionUnsoundness demonstrates why the paper configured TSan
// with enough shadow cells (§5): with bounded cells and many interleaved
// threads, the record of the racy write can be evicted before the racing
// access arrives, hiding the race. The full FastTrack detector keeps it.
func TestShadowEvictionUnsoundness(t *testing.T) {
	target := PairKey{10, 20}
	missed := false
	for seed := int64(0); seed < 20 && !missed; seed++ {
		d := NewCellDetector(2, seed) // tiny shadow: 2 cells per word
		d.Access(0, x, true, 10)      // the racy write
		// Flood the granule with ordered accesses from other threads.
		for tid := clock.TID(1); tid <= 6; tid++ {
			d.Fork(0, tid) // ordered after the write: no races with it
			d.Access(tid, x, false, 100+shadowSite(tid))
		}
		d.Access(7, x, true, 20) // concurrent with the write of site 10
		found := false
		for _, k := range d.RaceKeys() {
			if k == target {
				found = true
			}
		}
		if !found {
			missed = true
		}
	}
	if !missed {
		t.Fatal("bounded shadow never missed the race; eviction model broken?")
	}

	// The unbounded detector must always find it under the same pattern.
	full := New()
	full.Write(0, x, 10)
	for tid := clock.TID(1); tid <= 6; tid++ {
		full.Fork(0, tid)
		full.Read(tid, x, 100)
	}
	full.Write(7, x, 20)
	if full.RaceCount() == 0 {
		t.Fatal("full detector missed a real race")
	}
}

func shadowSite(tid clock.TID) shadow.SiteID { return shadow.SiteID(tid) }

func TestChecksCounter(t *testing.T) {
	d := New()
	d.Write(0, x, 1)
	d.Read(0, x, 2)
	d.Access(0, y, true, 3)
	if d.Checks != 3 {
		t.Fatalf("Checks = %d, want 3", d.Checks)
	}
}

func TestRaceStringRendering(t *testing.T) {
	r := Race{Addr: x, PrevSite: 1, CurSite: 2, PrevWrite: true, CurTID: 3}
	if r.String() == "" {
		t.Fatal("empty race string")
	}
}
