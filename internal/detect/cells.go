package detect

import (
	"repro/internal/clock"
	"repro/internal/memmodel"
	"repro/internal/shadow"
)

// CellDetector is the bounded-shadow variant: instead of exact FastTrack
// word state it keeps the last N access records per granule with random
// replacement, exactly stock TSan's memory-bounding scheme (§5). It shares
// the happens-before machinery of Detector but can miss races once cells are
// evicted. TestShadowEvictionUnsoundness demonstrates the difference, which
// is why the paper configured TSan with "enough shadow cells to be sound".
type CellDetector struct {
	hb    *Detector
	store *shadow.CellStore

	Evictions uint64
}

// NewCellDetector returns a bounded detector with n cells per granule.
func NewCellDetector(n int, seed int64) *CellDetector {
	return &CellDetector{hb: New(), store: shadow.NewCellStore(n, seed)}
}

// clocks lets AcquireKind/ReleaseKind drive the wrapped core.
func (d *CellDetector) clocks() *Clocks { return &d.hb.Clocks }

// Fork, Join, Acquire and Release forward to the happens-before core.
func (d *CellDetector) Fork(p, c clock.TID)             { d.hb.Fork(p, c) }
func (d *CellDetector) Join(p, c clock.TID)             { d.hb.Join(p, c) }
func (d *CellDetector) Acquire(tid clock.TID, o SyncID) { d.hb.Acquire(tid, o) }
func (d *CellDetector) Release(tid clock.TID, o SyncID) { d.hb.Release(tid, o) }

// Access checks the new access against every surviving cell, then records it
// (possibly evicting a random cell).
func (d *CellDetector) Access(tid clock.TID, addr memmodel.Addr, isWrite bool, site shadow.SiteID) {
	d.hb.Checks++
	c := d.hb.thread(tid)
	for _, cell := range d.store.Cells(addr) {
		if cell.E.TID() == tid {
			continue
		}
		if !cell.Write && !isWrite {
			continue
		}
		if !c.LeqEpoch(cell.E) {
			d.hb.report(Race{Addr: addr, PrevSite: cell.Site, CurSite: site,
				PrevWrite: cell.Write, CurWrite: isWrite, PrevTID: cell.E.TID(), CurTID: tid}, d.hb.Checks)
		}
	}
	if d.store.Add(addr, shadow.Cell{E: c.Epoch(tid), Site: site, Write: isWrite}) {
		d.Evictions++
	}
}

// RaceCount returns the number of distinct static races found.
func (d *CellDetector) RaceCount() int { return d.hb.RaceCount() }

// Races returns the distinct races in first-detection order.
func (d *CellDetector) Races() []Race { return d.hb.Races() }

// RaceKeys returns the sorted normalized race pairs.
func (d *CellDetector) RaceKeys() []PairKey { return d.hb.RaceKeys() }

// ShadowStats exposes the happens-before core's shadow allocation counters.
func (d *CellDetector) ShadowStats() shadow.MemStats { return d.hb.mem.Stats() }

// CellStats exposes the bounded store's page-allocation counter.
func (d *CellDetector) CellStats() shadow.CellStats { return d.store.Stats() }
