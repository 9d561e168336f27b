package core

import (
	"math/rand"

	"repro/internal/clock"
	"repro/internal/detect"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Baseline is the uninstrumented runtime: no hooks, no detector, no HTM.
// Running the original program under it yields the "original time" column of
// Table 1 that all overheads are normalized against.
type Baseline struct{ sim.NopRuntime }

// hbRuntime is the one software happens-before runtime, standing in for
// Google's ThreadSanitizer: every analyzed access pays the shadow-check cost
// and goes to the detector; every sync operation pays the vector-clock cost.
// Run it on a program instrumented by instrument.ForTSan. Over the exact
// FastTrack detector it is TSan (NewTSan), and with a sampling rate below 1
// the TSan+Sampling baseline of Figures 11–13 (NewSampling); over the
// bounded cell detector it is stock TSan's N-shadow-cell configuration
// (NewTSanBounded).
type hbRuntime[D detect.HB] struct {
	sim.NopRuntime
	det D
	eng *sim.Engine

	// rate is the per-access sampling rate in [0,1]. Below 1 each hooked
	// access draws once from rng and is analyzed only if the draw falls
	// under rate, in the style of LiteRace/Pacer. Sync operations are never
	// sampled away: dropping them would corrupt the happens-before relation
	// rather than merely lose coverage.
	rate float64
	rng  *rand.Rand

	// SlowScale multiplies the per-access hook cost; see Options.SlowScale.
	SlowScale float64
}

// TSan is the always-on happens-before runtime over the exact FastTrack
// detector.
type TSan = hbRuntime[*detect.Detector]

// NewTSan returns a TSan runtime in the default sparse-clock configuration.
func NewTSan() *TSan { return NewTSanWith(detect.Config{}) }

// NewTSanWith returns a TSan runtime over a specific detector clock
// configuration (detect.Config.RefDense selects the retained dense
// reference path for differential runs).
func NewTSanWith(cfg detect.Config) *TSan {
	return &TSan{det: detect.NewWith(cfg), rate: 1, SlowScale: 1}
}

// NewSampling returns a TSan runtime that analyzes each hooked access with
// probability rate.
func NewSampling(rate float64, seed int64) *TSan {
	return NewSamplingWith(rate, seed, detect.Config{})
}

// NewSamplingWith is NewSampling over a specific detector clock
// configuration.
func NewSamplingWith(rate float64, seed int64, cfg detect.Config) *TSan {
	if rate < 0 || rate > 1 {
		panic("core: sampling rate out of [0,1]")
	}
	r := NewTSanWith(cfg)
	r.rate = rate
	if rate < 1 {
		r.rng = rand.New(rand.NewSource(seed))
	}
	return r
}

// NewTSanBounded returns a TSan runtime over a bounded shadow of n cells per
// granule with random replacement (§5). The paper explicitly configured TSan
// with "enough shadow cells to be sound"; this runtime exists to measure
// what that choice buys — see the shadow experiment and
// TestShadowEvictionUnsoundness.
func NewTSanBounded(n int, seed int64) *hbRuntime[*detect.CellDetector] {
	return &hbRuntime[*detect.CellDetector]{det: detect.NewCellDetector(n, seed), rate: 1, SlowScale: 1}
}

// Detector exposes the underlying detector.
func (r *hbRuntime[D]) Detector() D { return r.det }

// Init implements sim.Runtime.
func (r *hbRuntime[D]) Init(e *sim.Engine) { r.eng = e }

// Fork implements sim.Runtime.
func (r *hbRuntime[D]) Fork(p, c *sim.Thread) { r.det.Fork(clock.TID(p.ID), clock.TID(c.ID)) }

// Joined implements sim.Runtime.
func (r *hbRuntime[D]) Joined(p, c *sim.Thread) { r.det.Join(clock.TID(p.ID), clock.TID(c.ID)) }

// JoinedAll implements sim.BatchJoiner: the engine's join-all point becomes
// one tree-structured N-way clock merge instead of N sequential joins.
func (r *hbRuntime[D]) JoinedAll(p *sim.Thread, cs []*sim.Thread) {
	r.det.JoinAllChildren(clock.TID(p.ID), childTIDs(cs))
}

// childTIDs converts a thread batch to detector TIDs.
func childTIDs(cs []*sim.Thread) []clock.TID {
	tids := make([]clock.TID, len(cs))
	for i, c := range cs {
		tids[i] = clock.TID(c.ID)
	}
	return tids
}

// SyncAcquire implements sim.Runtime.
func (r *hbRuntime[D]) SyncAcquire(t *sim.Thread, s sim.SyncID, kind sim.SyncKind) {
	r.eng.ChargeAs(t, r.eng.Config().Cost.SlowSyncHook, obs.PhaseSlow)
	detect.AcquireKind(r.det, clock.TID(t.ID), detect.SyncID(s), kind)
}

// SyncRelease implements sim.Runtime.
func (r *hbRuntime[D]) SyncRelease(t *sim.Thread, s sim.SyncID, kind sim.SyncKind) {
	r.eng.ChargeAs(t, r.eng.Config().Cost.SlowSyncHook, obs.PhaseSlow)
	detect.ReleaseKind(r.det, clock.TID(t.ID), detect.SyncID(s), kind)
}

// Atomic implements sim.Runtime. Atomics are synchronization, so they are
// never sampled away.
func (r *hbRuntime[D]) Atomic(t *sim.Thread, m *sim.AtomicRMW, addr memmodel.Addr) {
	r.eng.ChargeAs(t, r.eng.Config().Cost.SlowSyncHook, obs.PhaseSlow)
	r.det.Atomic(clock.TID(t.ID), addr, m.Site)
}

// Access implements sim.Runtime. A sampled-away access leaves no shadow
// state, so both halves of a race must be sampled for the race to be found —
// the source of the recall loss the paper plots in Figure 13.
func (r *hbRuntime[D]) Access(t *sim.Thread, m *sim.MemAccess, addr memmodel.Addr) {
	if !m.Hooked {
		return
	}
	if r.rate < 1 && r.rng.Float64() >= r.rate {
		r.eng.ChargeAs(t, r.eng.Config().Cost.SampleGate, obs.PhaseSample)
		return
	}
	r.eng.ChargeAs(t, int64(float64(r.eng.Config().Cost.SlowAccessHook)*r.SlowScale), obs.PhaseSlow)
	r.det.Access(clock.TID(t.ID), addr, m.Write, m.Site)
}

// Finish folds what the detector holds into the metrics: the exact
// detector's shadow allocation counters or the bounded detector's cell-store
// pages, and the clock-representation counters of either.
func (r *hbRuntime[D]) Finish(e *sim.Engine) {
	o := e.Config().Obs
	switch d := any(r.det).(type) {
	case *detect.Detector:
		s := d.ShadowStats()
		o.ShadowMemStats(s.Pages, s.PoolHits, s.PoolMisses)
	case *detect.CellDetector:
		o.ShadowCellStats(d.CellStats().Pages)
	}
	cs := r.det.ClockStats()
	o.ClockSparseStats(cs.Promotions, cs.Collapses, cs.Fallbacks)
}
