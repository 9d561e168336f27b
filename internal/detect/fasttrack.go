package detect

import (
	"repro/internal/clock"
	"repro/internal/memmodel"
	"repro/internal/shadow"
)

// FastTrack is the repository's one FastTrack access kernel (Flanagan &
// Freund's adaptive epoch/vector shadow state) over a shadow.Memory, with a
// RaceLog of what it found. The accessing thread's clock is a parameter, so
// the caller decides where clocks come from: Detector passes the live thread
// clock from its embedded Clocks; the streaming server's address shards pass
// a copy-on-write Clocks.Snapshot taken when the access was routed.
type FastTrack struct {
	mem *shadow.Memory
	RaceLog

	// Checks counts memory accesses actually analyzed; the cost model uses
	// it and the sampling comparison reports it.
	Checks uint64
}

// NewFastTrack returns a kernel over an empty shadow memory with sparse
// read vectors.
func NewFastTrack() *FastTrack {
	k := &FastTrack{mem: shadow.NewMemory()}
	k.mem.UseSparseClocks(nil)
	return k
}

// Access analyzes one access by tid at static site under tid's clock c.
// threads is the capacity hint for read-vector inflation (never affects
// results); idx is the access's event index, recorded with any race it
// completes.
func (k *FastTrack) Access(c *clock.VC, tid clock.TID, addr memmodel.Addr, isWrite bool, site shadow.SiteID, threads int, idx uint64) {
	if isWrite {
		k.write(c, tid, addr, site, idx)
	} else {
		k.read(c, tid, addr, site, threads, idx)
	}
}

// read follows FastTrack's adaptive read representation.
func (k *FastTrack) read(c *clock.VC, tid clock.TID, addr memmodel.Addr, site shadow.SiteID, threads int, idx uint64) {
	k.Checks++
	w := k.mem.Word(addr)
	e := c.Epoch(tid)

	if w.ReadShared() {
		if w.RVC.Get(tid) == e.Time() {
			return // same-epoch read
		}
	} else if w.R == e {
		return
	}

	if !c.LeqEpoch(w.W) {
		k.report(Race{Addr: addr, PrevSite: w.WSite, CurSite: site,
			PrevWrite: true, CurWrite: false, PrevTID: w.W.TID(), CurTID: tid}, idx)
	}

	if w.ReadShared() {
		w.RecordSharedRead(tid, e.Time(), site)
		return
	}
	if w.R == clock.NoEpoch || c.LeqEpoch(w.R) {
		w.R, w.RSite = e, site // exclusive: new read supersedes ordered old one
		return
	}
	// Two concurrent readers: inflate to vector mode (pooled).
	k.mem.Inflate(w, threads)
	w.RecordSharedRead(tid, e.Time(), site)
}

func (k *FastTrack) write(c *clock.VC, tid clock.TID, addr memmodel.Addr, site shadow.SiteID, idx uint64) {
	k.Checks++
	w := k.mem.Word(addr)
	e := c.Epoch(tid)

	if w.W == e {
		w.WSite = site
		return // same-epoch write
	}
	if !c.LeqEpoch(w.W) {
		k.report(Race{Addr: addr, PrevSite: w.WSite, CurSite: site,
			PrevWrite: true, CurWrite: true, PrevTID: w.W.TID(), CurTID: tid}, idx)
	}
	if w.ReadShared() {
		// ForEach visits nonzero components in ascending tid order — the
		// same components, in the same order, as the dense index loop it
		// replaced, so race reports are representation-independent.
		w.RVC.ForEach(func(t clock.TID, rt clock.Time) {
			if rt > c.Get(t) {
				k.report(Race{Addr: addr, PrevSite: w.RSiteOf(t), CurSite: site,
					PrevWrite: false, CurWrite: true, PrevTID: t, CurTID: tid}, idx)
			}
		})
	} else if w.R != clock.NoEpoch && !c.LeqEpoch(w.R) {
		k.report(Race{Addr: addr, PrevSite: w.RSite, CurSite: site,
			PrevWrite: false, CurWrite: true, PrevTID: w.R.TID(), CurTID: tid}, idx)
	}
	// FastTrack write-clears-reads: any later access ordered after this
	// write is ordered after all reads it superseded; any unordered later
	// access will race with this write instead. The released read vector
	// goes back to the memory's pool.
	w.W, w.WSite = e, site
	k.mem.ClearReads(w)
}
