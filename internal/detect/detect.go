// Package detect implements the slow-path software race detector: a
// FastTrack-style happens-before algorithm over shadow memory, equivalent in
// role to the Google ThreadSanitizer instance TxRace invokes on demand (§5).
//
// The detector is complete (reports only true happens-before races of the
// monitored trace) and — when every access is fed to it — sound for that
// trace. TxRace's unsoundness comes from feeding it only the re-executed
// regions, never from the algorithm itself.
package detect

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/memmodel"
	"repro/internal/shadow"
)

// SyncID identifies a synchronization object (mutex, condvar, barrier).
type SyncID uint32

// Race is one detected happens-before violation. Prev is the access already
// recorded in shadow memory, Cur the access that completed the race.
type Race struct {
	Addr      memmodel.Addr
	PrevSite  shadow.SiteID
	CurSite   shadow.SiteID
	PrevWrite bool
	CurWrite  bool
	PrevTID   clock.TID
	CurTID    clock.TID
}

// Key returns the normalized static instruction pair identifying the race.
// The paper counts "static instances" (§8.3): a racy pair of source
// locations, regardless of how many dynamic occurrences it has.
func (r Race) Key() PairKey {
	a, b := r.PrevSite, r.CurSite
	if a > b {
		a, b = b, a
	}
	return PairKey{A: a, B: b}
}

func (r Race) String() string {
	return fmt.Sprintf("race @%#x: site %d (tid %d, write=%v) vs site %d (tid %d, write=%v)",
		uint64(r.Addr), r.PrevSite, r.PrevTID, r.PrevWrite, r.CurSite, r.CurTID, r.CurWrite)
}

// PairKey is a normalized static race identity.
type PairKey struct{ A, B shadow.SiteID }

// Config selects the detector's vector-clock representation (DESIGN.md §11).
// The zero value is the production configuration: sparse/delta clocks with
// periodic epoch-collapsing.
type Config struct {
	// RefDense forces the retained dense representation everywhere: thread
	// clocks, sync tables, read vectors, vcVars. It is the reference path
	// for differential tests, exactly like the RefScan precedent.
	RefDense bool
	// CollapseEvery is the number of release operations between
	// epoch-collapse rounds. 0 means DefaultCollapseEvery; negative
	// disables collapsing (sparse clocks then never change base).
	CollapseEvery int
}

// DefaultCollapseEvery is the release cadence of epoch-collapse rounds.
const DefaultCollapseEvery = 256

// collapseMinThreads gates collapsing: below this thread count the dense
// representation is already near-optimal and a shared base buys nothing.
const collapseMinThreads = 16

// Detector is the sequential FastTrack detector: the happens-before core
// (Clocks) feeding the live thread clock into the FastTrack kernel. Read,
// Write and Access inline the thread-clock fast path and make one call into
// the kernel, so the hot path is one function deep.
type Detector struct {
	Clocks
	FastTrack
}

// HB is the detector contract of the software happens-before runtime
// (core.TSan): the Clocks core plus per-access and atomic analysis.
// *Detector (exact FastTrack shadow) and *CellDetector (N bounded cells per
// granule) meet it.
type HB interface {
	hbCore
	Fork(parent, child clock.TID)
	Join(parent, child clock.TID)
	JoinAllChildren(parent clock.TID, children []clock.TID)
	ClockStats() clock.Stats
	Access(tid clock.TID, addr memmodel.Addr, isWrite bool, site shadow.SiteID)
	Atomic(tid clock.TID, addr memmodel.Addr, site shadow.SiteID)
}

// New returns an empty detector in the default sparse-clock configuration.
func New() *Detector { return NewWith(Config{}) }

// NewWith returns an empty detector with the given clock configuration.
func NewWith(cfg Config) *Detector {
	d := &Detector{}
	d.Clocks.init(cfg)
	d.mem = shadow.NewMemory()
	if !cfg.RefDense {
		d.mem.UseSparseClocks(d.stats)
	}
	return d
}

// ShadowStats exposes the shadow memory's allocation counters; the runtimes
// fold them into the observability metrics at the end of a run.
func (d *Detector) ShadowStats() shadow.MemStats { return d.mem.Stats() }

// Read analyzes a read of addr by tid at static site.
func (d *Detector) Read(tid clock.TID, addr memmodel.Addr, site shadow.SiteID) {
	c := d.thread(tid)
	d.read(c, tid, addr, site, len(d.threads), d.Checks)
}

// Write analyzes a write of addr by tid at static site.
func (d *Detector) Write(tid clock.TID, addr memmodel.Addr, site shadow.SiteID) {
	c := d.thread(tid)
	d.write(c, tid, addr, site, d.Checks)
}

// Access dispatches to Read or Write.
func (d *Detector) Access(tid clock.TID, addr memmodel.Addr, isWrite bool, site shadow.SiteID) {
	c := d.thread(tid)
	if isWrite {
		d.write(c, tid, addr, site, d.Checks)
	} else {
		d.read(c, tid, addr, site, len(d.threads), d.Checks)
	}
}
