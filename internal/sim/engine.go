package sim

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/memmodel"
	"repro/internal/obs"
)

// Runtime receives execution events from the engine. Implementations in
// internal/core provide the baseline (no-op), TSan-equivalent, sampling, and
// TxRace behaviours. Hooks may charge extra cycles via Engine.Charge and may
// rewind the executing thread via Engine.Restore (only from PreStep or one
// of the Tx/LoopCheck marks).
type Runtime interface {
	// Init is called once before execution with the engine handle.
	Init(e *Engine)
	// ThreadStart fires when a thread begins executing; ThreadExit when its
	// body completes.
	ThreadStart(t *Thread)
	ThreadExit(t *Thread)
	// Fork and Joined carry thread-lifetime happens-before edges.
	Fork(parent, child *Thread)
	Joined(parent, child *Thread)
	// PreStep fires before each instruction; it is the abort-delivery point
	// (a transaction doomed by a remote access discovers it here).
	PreStep(t *Thread)
	// Access fires for every executed memory access, hooked or not.
	Access(t *Thread, m *MemAccess, addr memmodel.Addr)
	// Atomic fires for every atomic read-modify-write.
	Atomic(t *Thread, m *AtomicRMW, addr memmodel.Addr)
	// SyncAcquire fires when a lock acquire, wait, or barrier departure
	// completes; SyncRelease at unlock, signal, or barrier arrival. The
	// kind distinguishes mutexes, rwlock read/write holds, semaphores, and
	// barriers for detectors that need lock identity or reader/writer
	// asymmetry.
	SyncAcquire(t *Thread, s SyncID, kind SyncKind)
	SyncRelease(t *Thread, s SyncID, kind SyncKind)
	// SyscallEvent fires when a system call executes.
	SyscallEvent(t *Thread, sc *Syscall)
	// TxBeginMark, TxEndMark and LoopCheckMark fire at instrumented marks.
	TxBeginMark(t *Thread, m *TxBegin)
	TxEndMark(t *Thread, m *TxEnd)
	LoopCheckMark(t *Thread, m *LoopCheck)
	// Interrupt fires when a timer interrupt / context switch hits t.
	Interrupt(t *Thread)
	// Finish is called once after the program terminates.
	Finish(e *Engine)
}

// NopRuntime implements Runtime with no-ops; concrete runtimes embed it.
type NopRuntime struct{}

func (NopRuntime) Init(*Engine)                              {}
func (NopRuntime) ThreadStart(*Thread)                       {}
func (NopRuntime) ThreadExit(*Thread)                        {}
func (NopRuntime) Fork(*Thread, *Thread)                     {}
func (NopRuntime) Joined(*Thread, *Thread)                   {}
func (NopRuntime) PreStep(*Thread)                           {}
func (NopRuntime) Access(*Thread, *MemAccess, memmodel.Addr) {}
func (NopRuntime) Atomic(*Thread, *AtomicRMW, memmodel.Addr) {}
func (NopRuntime) SyncAcquire(*Thread, SyncID, SyncKind)     {}
func (NopRuntime) SyncRelease(*Thread, SyncID, SyncKind)     {}
func (NopRuntime) SyscallEvent(*Thread, *Syscall)            {}
func (NopRuntime) TxBeginMark(*Thread, *TxBegin)             {}
func (NopRuntime) TxEndMark(*Thread, *TxEnd)                 {}
func (NopRuntime) LoopCheckMark(*Thread, *LoopCheck)         {}
func (NopRuntime) Interrupt(*Thread)                         {}
func (NopRuntime) Finish(*Engine)                            {}

type threadState uint8

const (
	stateNew threadState = iota
	stateRunnable
	stateBlocked
	stateDone
)

// frame is one entry of a thread's control stack: the body being executed
// (a thread body or a loop body) and the pc indexing into it.
type frame struct {
	body []Instr
	pc   int
	loop *Loop
	iter int
}

// Thread is one simulated thread. Clock is its virtual time in cycles; the
// engine always advances the runnable thread with the smallest clock, so
// cross-thread event order is global-virtual-time order and "two
// transactions overlap" has its natural meaning.
type Thread struct {
	ID    int
	Clock int64
	RNG   PRNG

	// Phase is the attribution phase Charge bills cycles to when a ledger is
	// attached (Config.Obs with a Ledger). Runtimes move it at mode
	// transitions (fast-path entry, slow-path fallback, governor forcing);
	// it idles at PhaseApp. With no ledger it is dead state.
	Phase obs.Phase

	// RT is scratch space owned by the active Runtime.
	RT any

	state          threadState
	frames         []frame
	restored       bool // set by Restore; suppresses the pc advance this step
	barrierArrived bool
	condWaiting    bool // inside CondWait: released the mutex, must reacquire
	nextInterrupt  int64
	eng            *Engine
	isWorker       bool
	led            *obs.ThreadLedger // nil unless attribution is on
}

// LoopIter returns the induction variable of the enclosing loop at the given
// depth (0 = innermost). It returns 0 when no such loop exists.
func (t *Thread) LoopIter(depth int) int {
	seen := 0
	for i := len(t.frames) - 1; i >= 0; i-- {
		if t.frames[i].loop != nil {
			if seen == depth {
				return t.frames[i].iter
			}
			seen++
		}
	}
	return 0
}

// Snapshot captures a thread's control state for transactional rollback.
type Snapshot struct {
	frames []frame
	rng    PRNG
	valid  bool
}

// Valid reports whether the snapshot holds captured state.
func (s Snapshot) Valid() bool { return s.valid }

// Eval computes the effective address of expression a for thread t.
func (t *Thread) Eval(a AddrExpr) memmodel.Addr {
	switch a.Mode {
	case AddrFixed:
		return a.Base
	case AddrLoop:
		w := uint64(t.LoopIter(a.Depth))*a.Stride + a.Off
		if a.Wrap != 0 {
			w %= a.Wrap
		}
		return a.Base + memmodel.Addr(w*memmodel.WordSize)
	case AddrRandom:
		return a.Base + memmodel.Addr(t.RNG.Uint64n(a.Range)*memmodel.WordSize)
	default:
		panic(fmt.Sprintf("sim: bad address mode %d", a.Mode))
	}
}

// Config fixes the simulated machine and scheduler.
type Config struct {
	Seed uint64
	// Cores is the physical core count (paper: 4); HWThreads the hardware
	// contexts with hyper-threading (paper: 8). Oversubscribing the
	// physical cores multiplies the interrupt/context-switch rate, which is
	// the paper's explanation for the 8-thread unknown-abort blow-up
	// (Fig. 8).
	Cores     int
	HWThreads int
	// InterruptEvery is the mean number of cycles between timer interrupts
	// delivered to a running thread; zero disables interrupts.
	InterruptEvery int64
	// SpawnJitter is the maximum random skew (cycles) added to a thread's
	// clock at spawn, perturbing overlap between runs.
	SpawnJitter int64
	// WakeJitter is the maximum random skew added when a blocked thread is
	// woken (scheduler dispatch variability).
	WakeJitter int64
	// MaxSteps guards against runaway programs; zero means no limit.
	MaxSteps uint64
	Cost     cost.Model
	// Obs, when non-nil, receives scheduler-level observability events
	// (thread start/exit, interrupt deliveries). The disabled path is one
	// nil-check per site.
	Obs *obs.Observer
}

// DefaultConfig mirrors the paper's testbed.
func DefaultConfig() Config {
	return Config{
		Seed:           1,
		Cores:          4,
		HWThreads:      8,
		InterruptEvery: 400_000,
		SpawnJitter:    2_000,
		WakeJitter:     100,
		Cost:           cost.Default(),
	}
}

// Result summarizes one execution.
type Result struct {
	// Makespan is the maximum final thread clock: the run's virtual wall
	// time. Overheads in the experiments are ratios of makespans.
	Makespan     int64
	ThreadClocks []int64
	TotalCycles  int64

	Instructions   uint64
	Accesses       uint64
	HookedAccesses uint64
	SyncOps        uint64
	Syscalls       uint64
	Interrupts     uint64
}

type mutex struct {
	owner   *Thread
	waiters []*Thread
}

type rwlock struct {
	readers int
	writer  *Thread
	waiters []*Thread // blocked RLock and WLock attempts, FIFO
}

type sem struct {
	count   int
	waiters []*Thread
}

type barrier struct {
	arrived []*Thread
}

type cond struct {
	waiters []*Thread // blocked in CondWait, before their wakeup
}

// Engine interprets a Program, delivering events to a Runtime.
type Engine struct {
	cfg     Config
	rt      Runtime
	prog    *Program
	threads []*Thread
	rng     PRNG

	mutexes  syncTable[mutex]
	rwlocks  syncTable[rwlock]
	sems     syncTable[sem]
	barriers syncTable[barrier]
	conds    syncTable[cond]

	obs *obs.Observer
	// led is the attribution ledger (nil when disabled). Every cycle added
	// to a thread clock is also charged here — Charge/ChargeAs bill the
	// thread's current phase, and the scheduler's own clock jumps (wake
	// latency, spawn skew, join catch-up) bill PhaseSched — so per-thread
	// ledger totals equal final thread clocks exactly; Run verifies.
	led *obs.Ledger

	res         Result
	liveWorkers int
	steps       uint64
}

// NewEngine returns an engine for cfg.
func NewEngine(cfg Config) *Engine {
	if cfg.Cores <= 0 {
		cfg.Cores = 4
	}
	if cfg.HWThreads < cfg.Cores {
		cfg.HWThreads = cfg.Cores
	}
	return &Engine{
		cfg: cfg,
		obs: cfg.Obs,
		led: cfg.Obs.Ledger(),
		rng: NewPRNG(cfg.Seed ^ 0xda7a5eed),
	}
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Charge adds c cycles to t's clock; runtimes use it for hook costs. With a
// ledger attached, the cycles bill t's current attribution phase.
func (e *Engine) Charge(t *Thread, c int64) {
	t.Clock += c
	e.res.TotalCycles += c
	if t.led != nil {
		t.led.Add(t.Phase, c)
	}
}

// ChargeAs is Charge billing an explicit phase instead of t's current one —
// for costs whose attribution differs from the surrounding execution (an
// abort penalty delivered while the thread is nominally fast-path, a slow
// hook inside an otherwise uninstrumented stretch) without toggling t.Phase
// around every call.
func (e *Engine) ChargeAs(t *Thread, c int64, p obs.Phase) {
	t.Clock += c
	e.res.TotalCycles += c
	if t.led != nil {
		t.led.Add(p, c)
	}
}

// LiveWorkers returns the number of spawned, unfinished worker threads; the
// TxRace runtime's single-threaded-mode optimization consults it.
func (e *Engine) LiveWorkers() int { return e.liveWorkers }

// ThreadClock returns thread id's current virtual time, or 0 for an unknown
// id. Observability hooks use it to stamp events about threads other than
// the one executing (e.g. the loser of an HTM conflict).
func (e *Engine) ThreadClock(id int) int64 {
	if id < 0 || id >= len(e.threads) {
		return 0
	}
	return e.threads[id].Clock
}

// Checkpoint captures t's control state (frames and PRNG). The TxRace
// runtime takes one at each transaction begin so an abort can rewind the
// region for slow-path re-execution; the PRNG is included so the replay
// touches the same addresses.
func (e *Engine) Checkpoint(t *Thread) Snapshot {
	fr := make([]frame, len(t.frames))
	copy(fr, t.frames)
	return Snapshot{frames: fr, rng: t.RNG, valid: true}
}

// Restore rewinds t to a snapshot. The thread clock is deliberately NOT
// rewound: the cycles burned in the aborted attempt are real time, exactly
// like a hardware abort discarding work. Restoring mid-step suppresses the
// program-counter advance for the instruction being executed, so execution
// resumes exactly at the snapshot point.
func (e *Engine) Restore(t *Thread, s Snapshot) {
	if !s.valid {
		panic("sim: Restore with invalid snapshot")
	}
	t.frames = t.frames[:0]
	t.frames = append(t.frames, s.frames...)
	t.RNG = s.rng
	t.restored = true
}

// interruptScale models context-switch pressure: once runnable threads
// exceed the physical cores (hyper-threading territory), interrupt-driven
// transaction aborts multiply, per the paper's Fig. 8 analysis.
func (e *Engine) interruptScale() int64 {
	n := 0
	for _, t := range e.threads {
		if t.state == stateRunnable || t.state == stateBlocked {
			n++
		}
	}
	if n <= e.cfg.Cores {
		return 1
	}
	return 1 + 6*int64(n-e.cfg.Cores)/int64(e.cfg.Cores)
}

func (e *Engine) scheduleInterrupt(t *Thread) {
	if e.cfg.InterruptEvery <= 0 {
		t.nextInterrupt = 1<<63 - 1
		return
	}
	mean := e.cfg.InterruptEvery / e.interruptScale()
	if mean < 1 {
		mean = 1
	}
	// Uniform in [mean/2, 3*mean/2): cheap dispersion around the mean.
	t.nextInterrupt = t.Clock + mean/2 + int64(t.RNG.Uint64n(uint64(mean)))
}

func (e *Engine) newThread(id int, body []Instr, isWorker bool) *Thread {
	t := &Thread{
		ID:       id,
		RNG:      NewPRNG(e.cfg.Seed*0x9e37 + uint64(id)*0x85eb + 0x1234),
		state:    stateNew,
		frames:   []frame{{body: body}},
		eng:      e,
		isWorker: isWorker,
		led:      e.led.ThreadLedger(id),
	}
	return t
}

func (e *Engine) wake(t *Thread, at int64) {
	if t.state != stateBlocked {
		panic("sim: waking non-blocked thread")
	}
	before := t.Clock
	if at > t.Clock {
		t.Clock = at
	}
	t.Clock += e.cfg.Cost.WakeLatency
	if e.cfg.WakeJitter > 0 {
		t.Clock += int64(t.RNG.Uint64n(uint64(e.cfg.WakeJitter)))
	}
	if t.led != nil {
		t.led.Add(obs.PhaseSched, t.Clock-before)
	}
	t.state = stateRunnable
}

// Run executes prog under rt and returns the result. It returns an error on
// deadlock, when MaxSteps is exceeded, or — as a *ProgramError — when the
// program itself is malformed (unlock of an unowned mutex, read-unlock
// without a hold, ...).
func (e *Engine) Run(prog *Program, rt Runtime) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(*ProgramError)
			if !ok {
				panic(r)
			}
			res, err = nil, pe
		}
	}()
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("sim: invalid program: %w", err)
	}
	e.prog = prog
	e.rt = rt

	// Intern the program's sync-id space up front: one scan, one allocation
	// per table, then every sync instruction is a direct array index.
	maxID := maxSyncID(prog)
	e.mutexes.presize(maxID)
	e.rwlocks.presize(maxID)
	e.sems.presize(maxID)
	e.barriers.presize(maxID)
	e.conds.presize(maxID)

	main := e.newThread(0, e.mainBody(prog), false)
	e.threads = []*Thread{main}
	for i, w := range prog.Workers {
		e.threads = append(e.threads, e.newThread(i+1, w, true))
	}

	rt.Init(e)
	main.state = stateRunnable
	e.scheduleInterrupt(main)
	if e.obs != nil {
		e.obs.ThreadStart(main.ID, main.Clock)
	}
	rt.ThreadStart(main)

	for {
		t := e.pick()
		if t == nil {
			if e.allDone() {
				break
			}
			return nil, e.deadlockError()
		}
		if e.cfg.MaxSteps > 0 && e.steps >= e.cfg.MaxSteps {
			return nil, fmt.Errorf("sim: exceeded MaxSteps=%d", e.cfg.MaxSteps)
		}
		e.steps++
		e.step(t)
	}

	for _, t := range e.threads {
		e.res.ThreadClocks = append(e.res.ThreadClocks, t.Clock)
		if t.Clock > e.res.Makespan {
			e.res.Makespan = t.Clock
		}
	}
	rt.Finish(e)
	// Conservation check: with attribution on, every thread's ledger must sum
	// to its virtual clock exactly — a mismatch means some charge bypassed
	// Charge/ChargeAs or a reattribution moved cycles it never had.
	if e.led != nil {
		for _, t := range e.threads {
			if t.led == nil {
				continue
			}
			if tot := t.led.Total(); tot != t.Clock {
				return nil, fmt.Errorf(
					"sim: attribution ledger leak on t%d: ledger total %d cycles, thread clock %d (delta %d)",
					t.ID, tot, t.Clock, t.Clock-tot)
			}
		}
	}
	out := e.res
	return &out, nil
}

// mainBody wraps Setup + spawn/join pseudo-ops + Teardown.
func (e *Engine) mainBody(p *Program) []Instr {
	body := make([]Instr, 0, len(p.Setup)+len(p.Teardown)+2)
	body = append(body, p.Setup...)
	body = append(body, &spawnAll{}, &joinAll{})
	body = append(body, p.Teardown...)
	return body
}

// spawnAll and joinAll are engine-internal pseudo-instructions.
type spawnAll struct{}
type joinAll struct{}

func (*spawnAll) isInstr() {}
func (*joinAll) isInstr()  {}

func (e *Engine) pick() *Thread {
	var best *Thread
	nbest := 0
	for _, t := range e.threads {
		if t.state != stateRunnable {
			continue
		}
		switch {
		case best == nil || t.Clock < best.Clock:
			best, nbest = t, 1
		case t.Clock == best.Clock:
			// Reservoir-sample among clock ties for seeded fairness.
			nbest++
			if e.rng.Uint64n(uint64(nbest)) == 0 {
				best = t
			}
		}
	}
	return best
}

func (e *Engine) allDone() bool {
	for _, t := range e.threads {
		if t.state != stateDone && t.state != stateNew {
			return false
		}
	}
	// Workers stuck in stateNew only matter if main never spawned them;
	// main being done implies they ran or were never reachable.
	return e.threads[0].state == stateDone
}

func (e *Engine) deadlockError() error {
	de := &DeadlockError{}
	for _, t := range e.threads {
		if t.state != stateBlocked {
			continue
		}
		pc := -1
		if len(t.frames) > 0 {
			pc = t.frames[len(t.frames)-1].pc
		}
		de.Blocked = append(de.Blocked, BlockedThread{Thread: t.ID, PC: pc})
	}
	return de
}

func (e *Engine) charge(t *Thread, c int64) { e.Charge(t, c) }

func (e *Engine) step(t *Thread) {
	// Deliver due timer interrupts first.
	for t.nextInterrupt <= t.Clock {
		e.res.Interrupts++
		e.charge(t, 80) // bare interrupt handling latency
		if e.obs != nil {
			e.obs.Interrupt(t.ID, t.Clock)
		}
		e.rt.Interrupt(t)
		e.scheduleInterrupt(t)
	}

	e.rt.PreStep(t)
	// A Restore during PreStep redirects the upcoming fetch and is fully
	// handled; only a Restore during exec (below) must suppress the pc
	// advance of the in-flight instruction.
	t.restored = false

	if len(t.frames) == 0 {
		e.exitThread(t)
		return
	}
	fi := len(t.frames) - 1
	if t.frames[fi].pc >= len(t.frames[fi].body) {
		f := &t.frames[fi]
		if f.loop != nil {
			f.iter++
			e.charge(t, e.cfg.Cost.LoopBranch)
			if f.iter < f.loop.Count {
				f.pc = 0
				return
			}
		}
		t.frames = t.frames[:fi]
		if len(t.frames) == 0 {
			e.exitThread(t)
		}
		return
	}

	done := e.exec(t, t.frames[fi].body[t.frames[fi].pc])
	// Advance the issuing frame's pc unless the thread blocked (retry the
	// instruction on wake) or a Restore rewrote the stack (resume at the
	// snapshot point). A Loop push grows the stack but leaves index fi — the
	// parent frame — valid.
	if done && !t.restored {
		t.frames[fi].pc++
	}
}

func (e *Engine) exitThread(t *Thread) {
	if t.state == stateDone {
		return
	}
	t.state = stateDone
	if e.obs != nil {
		e.obs.ThreadExit(t.ID, t.Clock)
	}
	e.rt.ThreadExit(t)
	if t.isWorker {
		e.liveWorkers--
		main := e.threads[0]
		if main.state == stateBlocked && e.allWorkersDone() {
			e.wake(main, t.Clock)
		}
	}
}

func (e *Engine) allWorkersDone() bool {
	for _, t := range e.threads {
		if t.isWorker && t.state != stateDone {
			return false
		}
	}
	return true
}

// exec runs one instruction; it returns true when the instruction completed
// (advance pc) and false when the thread blocked or the stack was rewritten.
func (e *Engine) exec(t *Thread, in Instr) bool {
	e.res.Instructions++
	c := e.cfg.Cost
	switch in := in.(type) {
	case *MemAccess:
		if in.Addr.Mode == AddrRandom && in.Addr.Range == 0 {
			e.programError(t, "access", 0, "random address with zero range")
		}
		addr := t.Eval(in.Addr)
		e.charge(t, c.Access)
		e.res.Accesses++
		if in.Hooked {
			e.res.HookedAccesses++
		}
		e.rt.Access(t, in, addr)
		return true

	case *AtomicRMW:
		if in.Addr.Mode == AddrRandom && in.Addr.Range == 0 {
			e.programError(t, "atomic", 0, "random address with zero range")
		}
		addr := t.Eval(in.Addr)
		e.charge(t, c.LockOp/2+1) // a locked RMW: pricier than a load, cheaper than a mutex
		e.res.Accesses++
		e.res.SyncOps++
		e.rt.Atomic(t, in, addr)
		return true

	case *Compute:
		e.charge(t, in.Cycles)
		return true

	case *Delay:
		if in.Max > 0 {
			e.charge(t, int64(t.RNG.Uint64n(uint64(in.Max))))
		}
		return true

	case *Loop:
		if in.Count <= 0 {
			return true
		}
		t.frames = append(t.frames, frame{body: in.Body, loop: in})
		return true

	case *Lock:
		m := e.mutexOf(in.M)
		if m.owner == nil {
			m.owner = t
			e.charge(t, c.LockOp)
			e.res.SyncOps++
			e.rt.SyncAcquire(t, in.M, SyncMutex)
			return true
		}
		m.waiters = append(m.waiters, t)
		t.state = stateBlocked
		return false

	case *Unlock:
		m := e.mutexOf(in.M)
		if m.owner != t {
			e.programError(t, "unlock", in.M, "unlocks a mutex it does not own")
		}
		m.owner = nil
		e.charge(t, c.LockOp)
		e.res.SyncOps++
		e.rt.SyncRelease(t, in.M, SyncMutex)
		if len(m.waiters) > 0 {
			w := m.waiters[0]
			m.waiters = m.waiters[1:]
			e.wake(w, t.Clock)
		}
		return true

	case *RLock:
		l := e.rwlockOf(in.M)
		if l.writer == nil {
			l.readers++
			e.charge(t, c.LockOp)
			e.res.SyncOps++
			e.rt.SyncAcquire(t, in.M, SyncRead)
			return true
		}
		l.waiters = append(l.waiters, t)
		t.state = stateBlocked
		return false

	case *RUnlock:
		l := e.rwlockOf(in.M)
		if l.readers <= 0 {
			e.programError(t, "read-unlock", in.M, "read-unlocks an rwlock it does not hold")
		}
		l.readers--
		e.charge(t, c.LockOp)
		e.res.SyncOps++
		e.rt.SyncRelease(t, in.M, SyncRead)
		e.wakeRWWaiters(l, t)
		return true

	case *WLock:
		l := e.rwlockOf(in.M)
		if l.writer == nil && l.readers == 0 {
			l.writer = t
			e.charge(t, c.LockOp)
			e.res.SyncOps++
			e.rt.SyncAcquire(t, in.M, SyncWrite)
			return true
		}
		l.waiters = append(l.waiters, t)
		t.state = stateBlocked
		return false

	case *WUnlock:
		l := e.rwlockOf(in.M)
		if l.writer != t {
			e.programError(t, "write-unlock", in.M, "write-unlocks an rwlock it does not own")
		}
		l.writer = nil
		e.charge(t, c.LockOp)
		e.res.SyncOps++
		e.rt.SyncRelease(t, in.M, SyncWrite)
		e.wakeRWWaiters(l, t)
		return true

	case *Signal:
		s := e.semOf(in.C)
		s.count++
		e.charge(t, c.SignalOp)
		e.res.SyncOps++
		e.rt.SyncRelease(t, in.C, SyncSem)
		if len(s.waiters) > 0 {
			w := s.waiters[0]
			s.waiters = s.waiters[1:]
			e.wake(w, t.Clock)
		}
		return true

	case *Wait:
		s := e.semOf(in.C)
		if s.count > 0 {
			s.count--
			e.charge(t, c.WaitOp)
			e.res.SyncOps++
			e.rt.SyncAcquire(t, in.C, SyncSem)
			return true
		}
		s.waiters = append(s.waiters, t)
		t.state = stateBlocked
		return false

	case *CondWait:
		cv := e.condOf(in.C)
		m := e.mutexOf(in.M)
		if !t.condWaiting {
			// First phase: release the mutex and park on the condition.
			if m.owner != t {
				e.programError(t, "cond-wait", in.M, "cond-waits without holding the mutex")
			}
			t.condWaiting = true
			m.owner = nil
			e.charge(t, c.WaitOp)
			e.res.SyncOps++
			e.rt.SyncRelease(t, in.M, SyncMutex)
			if len(m.waiters) > 0 {
				w := m.waiters[0]
				m.waiters = m.waiters[1:]
				e.wake(w, t.Clock)
			}
			cv.waiters = append(cv.waiters, t)
			t.state = stateBlocked
			return false
		}
		// Second phase (after the signal): reacquire the mutex.
		if m.owner == nil {
			m.owner = t
			t.condWaiting = false
			e.charge(t, c.LockOp)
			e.res.SyncOps++
			// The wait observes both the signaller (condition clock) and
			// the mutex history.
			e.rt.SyncAcquire(t, in.C, SyncSem)
			e.rt.SyncAcquire(t, in.M, SyncMutex)
			return true
		}
		m.waiters = append(m.waiters, t)
		t.state = stateBlocked
		return false

	case *CondSignal:
		cv := e.condOf(in.C)
		e.charge(t, c.SignalOp)
		e.res.SyncOps++
		e.rt.SyncRelease(t, in.C, SyncSem)
		if len(cv.waiters) > 0 {
			w := cv.waiters[0]
			cv.waiters = cv.waiters[1:]
			e.wake(w, t.Clock)
		}
		return true

	case *CondBroadcast:
		cv := e.condOf(in.C)
		e.charge(t, c.SignalOp)
		e.res.SyncOps++
		e.rt.SyncRelease(t, in.C, SyncSem)
		for _, w := range cv.waiters {
			e.wake(w, t.Clock)
		}
		cv.waiters = nil
		return true

	case *Barrier:
		if in.N <= 0 {
			e.programError(t, "barrier", in.B, fmt.Sprintf("has non-positive width %d", in.N))
		}
		b := e.barrierOf(in.B)
		if !t.barrierArrived {
			t.barrierArrived = true
			e.charge(t, c.BarrierOp)
			e.res.SyncOps++
			e.rt.SyncRelease(t, in.B, SyncBarrier)
			b.arrived = append(b.arrived, t)
			if len(b.arrived) < in.N {
				t.state = stateBlocked
				return false
			}
			// Last arriver releases everyone at the max arrival time.
			maxClock := int64(0)
			for _, w := range b.arrived {
				if w.Clock > maxClock {
					maxClock = w.Clock
				}
			}
			for _, w := range b.arrived {
				if w != t {
					e.wake(w, maxClock)
				}
			}
			b.arrived = b.arrived[:0]
			// Fall through to departure for self.
		}
		t.barrierArrived = false
		e.res.SyncOps++
		e.rt.SyncAcquire(t, in.B, SyncBarrier)
		return true

	case *Syscall:
		cy := in.Cycles
		if cy < c.SyscallMin {
			cy = c.SyscallMin
		}
		e.charge(t, cy)
		e.res.Syscalls++
		e.rt.SyscallEvent(t, in)
		return true

	case *TxBegin:
		e.rt.TxBeginMark(t, in)
		return true

	case *TxEnd:
		e.rt.TxEndMark(t, in)
		return true

	case *LoopCheck:
		e.rt.LoopCheckMark(t, in)
		return true

	case *spawnAll:
		return e.execSpawnAll(t)

	case *joinAll:
		return e.execJoinAll(t)

	default:
		panic(fmt.Sprintf("sim: unknown instruction %T", in))
	}
}

// execSpawnAll releases all workers from the clock main had when it reached
// the spawn point: thread creation overlaps with child startup, so main's
// per-create cost does not serialize the children.
func (e *Engine) execSpawnAll(t *Thread) bool {
	spawnClock := t.Clock
	for _, w := range e.threads[1:] {
		if w.state != stateNew {
			continue
		}
		w.state = stateRunnable
		w.Clock = spawnClock
		if e.cfg.SpawnJitter > 0 {
			w.Clock += int64(w.RNG.Uint64n(uint64(e.cfg.SpawnJitter)))
		}
		if w.led != nil {
			w.led.Add(obs.PhaseSched, w.Clock) // startup skew, from clock 0
		}
		e.liveWorkers++
		e.scheduleInterrupt(w)
		e.rt.Fork(t, w)
		if e.obs != nil {
			e.obs.ThreadStart(w.ID, w.Clock)
		}
		e.rt.ThreadStart(w)
		e.charge(t, 400) // pthread_create-ish cost
	}
	return true
}

// BatchJoiner is an optional Runtime extension: a runtime that can merge a
// join-all in one batched pass (e.g. a detector's tree-structured N-way
// vector-clock join) implements it to replace the N sequential Joined
// callbacks. The virtual-time accounting is unaffected either way.
type BatchJoiner interface {
	JoinedAll(parent *Thread, children []*Thread)
}

func (e *Engine) execJoinAll(t *Thread) bool {
	if !e.allWorkersDone() {
		t.state = stateBlocked
		return false
	}
	// Clock catch-up and per-child charges first, in the same order as the
	// historical interleaved loop (Joined never touches clocks, so splitting
	// the runtime callbacks out changes no virtual-time arithmetic).
	for _, w := range e.threads[1:] {
		if w.Clock > t.Clock {
			if t.led != nil {
				t.led.Add(obs.PhaseSched, w.Clock-t.Clock) // blocked in join
			}
			t.Clock = w.Clock
		}
		e.charge(t, 200)
	}
	if bj, ok := e.rt.(BatchJoiner); ok {
		bj.JoinedAll(t, e.threads[1:])
		return true
	}
	for _, w := range e.threads[1:] {
		e.rt.Joined(t, w)
	}
	return true
}

// wakeRWWaiters wakes all blocked rwlock attempts; they re-execute their
// lock instruction and re-sort themselves (waking readers together lets
// concurrent readers proceed as a batch).
func (e *Engine) wakeRWWaiters(l *rwlock, at *Thread) {
	ws := l.waiters
	l.waiters = nil
	for _, w := range ws {
		e.wake(w, at.Clock)
	}
}

func (e *Engine) mutexOf(id SyncID) *mutex     { return e.mutexes.get(id) }
func (e *Engine) condOf(id SyncID) *cond       { return e.conds.get(id) }
func (e *Engine) rwlockOf(id SyncID) *rwlock   { return e.rwlocks.get(id) }
func (e *Engine) semOf(id SyncID) *sem         { return e.sems.get(id) }
func (e *Engine) barrierOf(id SyncID) *barrier { return e.barriers.get(id) }
