package detect

import (
	"repro/internal/clock"
	"repro/internal/memmodel"
	"repro/internal/shadow"
)

// VCDetector is a Djit⁺-style happens-before detector (Pozniansky &
// Schuster's MultiRace lineage, [58] in the paper): it keeps a full vector
// clock per variable for reads and writes instead of FastTrack's adaptive
// epochs. Detection power is identical to Detector — both implement exact
// happens-before — but every access pays O(threads) vector work where
// FastTrack usually pays O(1). BenchmarkDetectorAlgorithms quantifies the
// gap, which is the optimization FastTrack (and hence TSan, and hence this
// reproduction's slow path) is built on.
type VCDetector struct {
	Clocks
	RaceLog
	vars shadow.PageTable[vcVar]

	Checks uint64
}

type vcVar struct {
	w      *clock.VC
	r      *clock.VC
	wSites []shadow.SiteID // per-thread last write site
	rSites []shadow.SiteID
}

// NewVC returns an empty Djit⁺-style detector in the default sparse-clock
// configuration. Per-variable clocks are where sparsity pays most here: a
// variable touched by a handful of threads carries a handful of entries
// however many threads the program has.
func NewVC() *VCDetector { return NewVCWith(Config{}) }

// NewVCWith returns an empty Djit⁺-style detector with the given clock
// representation. It never epoch-collapses.
func NewVCWith(cfg Config) *VCDetector {
	d := &VCDetector{}
	d.Clocks.init(Config{RefDense: cfg.RefDense, CollapseEvery: -1})
	return d
}

func (d *VCDetector) varOf(a memmodel.Addr) *vcVar {
	v := d.vars.Get(memmodel.WordOf(a))
	if v.w == nil {
		v.w, v.r = d.newClock(), d.newClock()
	}
	return v
}

func setSite(sites *[]shadow.SiteID, tid clock.TID, site shadow.SiteID) {
	if int(tid) >= len(*sites) {
		ns := make([]shadow.SiteID, int(tid)+1)
		copy(ns, *sites)
		*sites = ns
	}
	(*sites)[tid] = site
}

func siteOf(sites []shadow.SiteID, tid clock.TID) shadow.SiteID {
	if int(tid) >= len(sites) {
		return 0
	}
	return sites[tid]
}

// scan reports every component of prev that is not covered by cur —
// Djit⁺'s per-access vector comparison. ForEach visits only live
// components in ascending tid order, so a sparse per-variable clock costs
// O(touching threads) rather than O(all threads), and reports stay in the
// dense loop's order.
func (d *VCDetector) scan(prev *clock.VC, sites []shadow.SiteID, prevWrite bool,
	cur *clock.VC, tid clock.TID, isWrite bool, addr memmodel.Addr, site shadow.SiteID) {
	prev.ForEach(func(t clock.TID, pt clock.Time) {
		if t == tid {
			return
		}
		if pt > cur.Get(t) {
			d.report(Race{Addr: addr, PrevSite: siteOf(sites, t), CurSite: site,
				PrevWrite: prevWrite, CurWrite: isWrite, PrevTID: t, CurTID: tid}, d.Checks)
		}
	})
}

// Read analyzes a read.
func (d *VCDetector) Read(tid clock.TID, addr memmodel.Addr, site shadow.SiteID) {
	d.Checks++
	c := d.thread(tid)
	v := d.varOf(addr)
	d.scan(v.w, v.wSites, true, c, tid, false, addr, site)
	v.r.Set(tid, c.Get(tid))
	setSite(&v.rSites, tid, site)
}

// Write analyzes a write.
func (d *VCDetector) Write(tid clock.TID, addr memmodel.Addr, site shadow.SiteID) {
	d.Checks++
	c := d.thread(tid)
	v := d.varOf(addr)
	d.scan(v.w, v.wSites, true, c, tid, true, addr, site)
	d.scan(v.r, v.rSites, false, c, tid, true, addr, site)
	v.w.Set(tid, c.Get(tid))
	setSite(&v.wSites, tid, site)
}

// Access dispatches to Read or Write.
func (d *VCDetector) Access(tid clock.TID, addr memmodel.Addr, isWrite bool, site shadow.SiteID) {
	if isWrite {
		d.Write(tid, addr, site)
	} else {
		d.Read(tid, addr, site)
	}
}
