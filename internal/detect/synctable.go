package detect

import "repro/internal/clock"

// Program synchronization objects carry small dense SyncIDs (the workload
// builder hands them out sequentially from 1), so the common lookup on every
// acquire/release is an array index. Two derived namespaces are sparse by
// construction — rwlock reader-side clocks (rwReaderBit) and atomic
// per-location clocks (atomicSyncBit) — and fall back to a map.
const denseSyncLimit = 1 << 16

// vcTable maps SyncIDs to their vector clocks: a direct-indexed slice for
// dense ids, a map for the namespaced remainder. The zero value is empty
// and builds dense clocks; a detector running sparse clocks installs its
// constructor via mk.
type vcTable struct {
	dense  []*clock.VC
	sparse map[SyncID]*clock.VC
	mk     func() *clock.VC // clock constructor (nil = dense clock.New(0))
}

func (t *vcTable) newClock() *clock.VC {
	if t.mk != nil {
		return t.mk()
	}
	return clock.New(0)
}

// get returns the clock for s, creating an empty one on first use.
func (t *vcTable) get(s SyncID) *clock.VC {
	if s < denseSyncLimit {
		if int(s) >= len(t.dense) {
			nd := make([]*clock.VC, int(s)+1)
			copy(nd, t.dense)
			t.dense = nd
		}
		v := t.dense[s]
		if v == nil {
			v = t.newClock()
			t.dense[s] = v
		}
		return v
	}
	if t.sparse == nil {
		t.sparse = make(map[SyncID]*clock.VC)
	}
	v := t.sparse[s]
	if v == nil {
		v = t.newClock()
		t.sparse[s] = v
	}
	return v
}
