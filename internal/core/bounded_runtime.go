package core

import (
	"repro/internal/clock"
	"repro/internal/detect"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TSanBounded is stock ThreadSanitizer's memory-bounded configuration: N
// shadow cells per 8 application bytes with random replacement (§5). The
// paper explicitly configured TSan with "enough shadow cells to be sound";
// this runtime exists to measure what that choice buys — see the shadow
// experiment and TestShadowEvictionUnsoundness.
type TSanBounded struct {
	sim.NopRuntime
	det *detect.CellDetector
	eng *sim.Engine

	// SlowScale as in TSan.
	SlowScale float64
}

// NewTSanBounded returns a bounded-shadow runtime with n cells per granule.
func NewTSanBounded(n int, seed int64) *TSanBounded {
	return &TSanBounded{det: detect.NewCellDetector(n, seed), SlowScale: 1}
}

// Detector exposes the underlying bounded detector.
func (r *TSanBounded) Detector() *detect.CellDetector { return r.det }

// Init implements sim.Runtime.
func (r *TSanBounded) Init(e *sim.Engine) { r.eng = e }

// Fork implements sim.Runtime.
func (r *TSanBounded) Fork(p, c *sim.Thread) { r.det.Fork(clock.TID(p.ID), clock.TID(c.ID)) }

// Joined implements sim.Runtime.
func (r *TSanBounded) Joined(p, c *sim.Thread) { r.det.Join(clock.TID(p.ID), clock.TID(c.ID)) }

// SyncAcquire implements sim.Runtime.
func (r *TSanBounded) SyncAcquire(t *sim.Thread, s sim.SyncID, kind sim.SyncKind) {
	r.eng.ChargeAs(t, r.eng.Config().Cost.SlowSyncHook, obs.PhaseSlow)
	detect.AcquireKind(r.det, clock.TID(t.ID), detect.SyncID(s), kind)
}

// SyncRelease implements sim.Runtime.
func (r *TSanBounded) SyncRelease(t *sim.Thread, s sim.SyncID, kind sim.SyncKind) {
	r.eng.ChargeAs(t, r.eng.Config().Cost.SlowSyncHook, obs.PhaseSlow)
	detect.ReleaseKind(r.det, clock.TID(t.ID), detect.SyncID(s), kind)
}

// Access implements sim.Runtime.
func (r *TSanBounded) Access(t *sim.Thread, m *sim.MemAccess, addr memmodel.Addr) {
	if !m.Hooked {
		return
	}
	r.eng.ChargeAs(t, int64(float64(r.eng.Config().Cost.SlowAccessHook)*r.SlowScale), obs.PhaseSlow)
	r.det.Access(clock.TID(t.ID), addr, m.Write, m.Site)
}

// Finish folds the detector's shadow and cell-store allocation counters into
// the metrics.
func (r *TSanBounded) Finish(e *sim.Engine) {
	s := r.det.ShadowStats()
	e.Config().Obs.ShadowMemStats(s.Pages, s.PoolHits, s.PoolMisses)
	e.Config().Obs.ShadowCellStats(r.det.CellStats().Pages)
}
