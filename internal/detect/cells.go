package detect

import (
	"repro/internal/clock"
	"repro/internal/memmodel"
	"repro/internal/shadow"
)

// CellDetector is the bounded-shadow variant: instead of exact FastTrack
// word state it keeps the last N access records per granule with random
// replacement, exactly stock TSan's memory-bounding scheme (§5). It runs on
// the same happens-before core (Clocks) as Detector but can miss races once
// cells are evicted. TestShadowEvictionUnsoundness demonstrates the
// difference, which is why the paper configured TSan with "enough shadow
// cells to be sound".
type CellDetector struct {
	Clocks
	RaceLog
	store *shadow.CellStore

	// Checks counts analyzed accesses; Evictions counts cells displaced by
	// random replacement.
	Checks    uint64
	Evictions uint64
}

// NewCellDetector returns a bounded detector with n cells per granule, in
// the default sparse-clock configuration.
func NewCellDetector(n int, seed int64) *CellDetector {
	d := &CellDetector{store: shadow.NewCellStore(n, seed)}
	d.Clocks.init(Config{})
	return d
}

// Access checks the new access against every surviving cell, then records it
// (possibly evicting a random cell).
func (d *CellDetector) Access(tid clock.TID, addr memmodel.Addr, isWrite bool, site shadow.SiteID) {
	d.Checks++
	c := d.thread(tid)
	for _, cell := range d.store.Cells(addr) {
		if cell.E.TID() == tid {
			continue
		}
		if !cell.Write && !isWrite {
			continue
		}
		if !c.LeqEpoch(cell.E) {
			d.report(Race{Addr: addr, PrevSite: cell.Site, CurSite: site,
				PrevWrite: cell.Write, CurWrite: isWrite, PrevTID: cell.E.TID(), CurTID: tid}, d.Checks)
		}
	}
	if d.store.Add(addr, shadow.Cell{E: c.Epoch(tid), Site: site, Write: isWrite}) {
		d.Evictions++
	}
}

// CellStats exposes the bounded store's page-allocation counter.
func (d *CellDetector) CellStats() shadow.CellStats { return d.store.Stats() }
