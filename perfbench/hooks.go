package main

import (
	"time"

	"repro/internal/memmodel"
	"repro/internal/sim"
)

// hook groups the sim.Runtime callbacks into the buckets the per-layer
// metrics report. Which layer a bucket belongs to depends on the wrapped
// runtime: under core.TxRace hkAccess is core.access_ns, under core.TSan it
// is detect.access_ns.
type hook int

const (
	hkAccess hook = iota
	hkPreStep
	hkTxBegin
	hkTxEnd
	hkLoopCheck
	hkSync  // SyncAcquire and SyncRelease
	hkJoin  // Joined and JoinedAll
	hkLife  // Init, Finish, ThreadStart, ThreadExit, Fork
	hkOther // Atomic, SyscallEvent, Interrupt
	numHooks
)

// hotSamplePeriod is the 1-in-N sampling period of the hooks that run per
// instruction or per access. Reading the clock twice costs about as much as
// a PreStep, so timing every such call would multiply the run time; a prime
// period keeps the sample from locking onto a loop's access pattern. The
// other hooks cost microseconds per call under some runtimes (a sync
// operation's clock join across 1024 threads, a transaction's cache reset)
// and have heavy-tailed costs, so every call is timed.
const hotSamplePeriod = 31

var samplePeriod = [numHooks]uint64{
	hkAccess:    hotSamplePeriod,
	hkPreStep:   hotSamplePeriod,
	hkTxBegin:   1,
	hkTxEnd:     1,
	hkLoopCheck: hotSamplePeriod,
	hkSync:      1,
	hkJoin:      1,
	hkLife:      1,
	hkOther:     hotSamplePeriod,
}

// hookStats counts every call per bucket and the wall time of the sampled
// ones.
type hookStats struct {
	calls   [numHooks]uint64
	sampled [numHooks]uint64
	ns      [numHooks]int64
}

// meanNS is the mean wall time of one call in bucket k, less clockCost, the
// calibrated cost of the timing itself. It is 0 for a bucket never called.
func (s *hookStats) meanNS(k hook, clockCost float64) float64 {
	if s.sampled[k] == 0 {
		return 0
	}
	return max(float64(s.ns[k])/float64(s.sampled[k])-clockCost, 0)
}

// totalNS estimates the wall time spent inside all hooks: each bucket's
// mean times its call count.
func (s *hookStats) totalNS(clockCost float64) float64 {
	var t float64
	for k := hook(0); k < numHooks; k++ {
		t += s.meanNS(k, clockCost) * float64(s.calls[k])
	}
	return t
}

func (s *hookStats) add(o *hookStats) {
	for k := range s.calls {
		s.calls[k] += o.calls[k]
		s.sampled[k] += o.sampled[k]
		s.ns[k] += o.ns[k]
	}
}

// calibrateClock measures the cost of an empty timed region (two clock
// reads), which every sampled hook duration includes.
func calibrateClock() float64 {
	const n = 200_000
	var sum time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		sum += time.Since(t0)
	}
	return float64(sum) / n
}

// timedRuntime forwards every sim.Runtime callback to the wrapped runtime
// and times a fixed sample of them.
type timedRuntime struct {
	inner sim.Runtime
	st    hookStats
}

// timedJoiner is a timedRuntime over a runtime that implements
// sim.BatchJoiner. The engine picks its join path by type assertion, so the
// wrapper must implement the extension exactly when the wrapped runtime
// does.
type timedJoiner struct {
	*timedRuntime
	bj sim.BatchJoiner
}

func (r *timedJoiner) JoinedAll(parent *sim.Thread, children []*sim.Thread) {
	s := r.start(hkJoin)
	r.bj.JoinedAll(parent, children)
	r.stop(hkJoin, s)
}

// wrapTimed returns the timing wrapper for rt and the statistics it fills.
func wrapTimed(rt sim.Runtime) (sim.Runtime, *hookStats) {
	tr := &timedRuntime{inner: rt}
	if bj, ok := rt.(sim.BatchJoiner); ok {
		return &timedJoiner{timedRuntime: tr, bj: bj}, &tr.st
	}
	return tr, &tr.st
}

func (r *timedRuntime) start(k hook) time.Time {
	r.st.calls[k]++
	if r.st.calls[k]%samplePeriod[k] != 0 {
		return time.Time{}
	}
	return time.Now()
}

func (r *timedRuntime) stop(k hook, s time.Time) {
	if s.IsZero() {
		return
	}
	r.st.ns[k] += int64(time.Since(s))
	r.st.sampled[k]++
}

func (r *timedRuntime) Init(e *sim.Engine) {
	s := r.start(hkLife)
	r.inner.Init(e)
	r.stop(hkLife, s)
}

func (r *timedRuntime) ThreadStart(t *sim.Thread) {
	s := r.start(hkLife)
	r.inner.ThreadStart(t)
	r.stop(hkLife, s)
}

func (r *timedRuntime) ThreadExit(t *sim.Thread) {
	s := r.start(hkLife)
	r.inner.ThreadExit(t)
	r.stop(hkLife, s)
}

func (r *timedRuntime) Fork(parent, child *sim.Thread) {
	s := r.start(hkLife)
	r.inner.Fork(parent, child)
	r.stop(hkLife, s)
}

func (r *timedRuntime) Joined(parent, child *sim.Thread) {
	s := r.start(hkJoin)
	r.inner.Joined(parent, child)
	r.stop(hkJoin, s)
}

func (r *timedRuntime) PreStep(t *sim.Thread) {
	s := r.start(hkPreStep)
	r.inner.PreStep(t)
	r.stop(hkPreStep, s)
}

func (r *timedRuntime) Access(t *sim.Thread, m *sim.MemAccess, addr memmodel.Addr) {
	s := r.start(hkAccess)
	r.inner.Access(t, m, addr)
	r.stop(hkAccess, s)
}

func (r *timedRuntime) Atomic(t *sim.Thread, m *sim.AtomicRMW, addr memmodel.Addr) {
	s := r.start(hkOther)
	r.inner.Atomic(t, m, addr)
	r.stop(hkOther, s)
}

func (r *timedRuntime) SyncAcquire(t *sim.Thread, id sim.SyncID, kind sim.SyncKind) {
	s := r.start(hkSync)
	r.inner.SyncAcquire(t, id, kind)
	r.stop(hkSync, s)
}

func (r *timedRuntime) SyncRelease(t *sim.Thread, id sim.SyncID, kind sim.SyncKind) {
	s := r.start(hkSync)
	r.inner.SyncRelease(t, id, kind)
	r.stop(hkSync, s)
}

func (r *timedRuntime) SyscallEvent(t *sim.Thread, sc *sim.Syscall) {
	s := r.start(hkOther)
	r.inner.SyscallEvent(t, sc)
	r.stop(hkOther, s)
}

func (r *timedRuntime) TxBeginMark(t *sim.Thread, m *sim.TxBegin) {
	s := r.start(hkTxBegin)
	r.inner.TxBeginMark(t, m)
	r.stop(hkTxBegin, s)
}

func (r *timedRuntime) TxEndMark(t *sim.Thread, m *sim.TxEnd) {
	s := r.start(hkTxEnd)
	r.inner.TxEndMark(t, m)
	r.stop(hkTxEnd, s)
}

func (r *timedRuntime) LoopCheckMark(t *sim.Thread, m *sim.LoopCheck) {
	s := r.start(hkLoopCheck)
	r.inner.LoopCheckMark(t, m)
	r.stop(hkLoopCheck, s)
}

func (r *timedRuntime) Interrupt(t *sim.Thread) {
	s := r.start(hkOther)
	r.inner.Interrupt(t)
	r.stop(hkOther, s)
}

func (r *timedRuntime) Finish(e *sim.Engine) {
	s := r.start(hkLife)
	r.inner.Finish(e)
	r.stop(hkLife, s)
}
