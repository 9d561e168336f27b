// Package core implements the TxRace runtime — the paper's primary
// contribution — together with the comparison runtimes the evaluation needs:
// an uninstrumented baseline (Baseline), the Eraser lockset baseline
// (Lockset), and one software happens-before runtime (TSan) that serves as
// the always-on TSan stand-in (NewTSan), the LiteRace-style sampling
// baseline of Figures 11–13 (NewSampling) and stock TSan's bounded
// shadow-cell configuration of §5 (NewTSanBounded).
//
// The TxRace runtime (§3–§5 of the paper) drives two-phase detection:
//
//	fast path:  synchronization-free regions run as hardware transactions;
//	            the HTM's cache-line conflict detection flags potential
//	            races at near-zero cost.
//	slow path:  on a conflict the runtime writes the TxFail flag, which —
//	            through the HTM's strong isolation — aborts every in-flight
//	            transaction; all of them roll back and re-execute with the
//	            software happens-before detector attached, pinpointing racy
//	            instructions and discarding false sharing.
//
// Capacity and unknown aborts send only the aborting thread to the slow
// path; happens-before of synchronization operations is tracked on both
// paths so slow-path episodes never report stale false positives (§5,
// Fig. 6).
package core

import (
	"repro/internal/memmodel"
	"repro/internal/sim"
)

// Mode is a thread's current monitoring mode.
type Mode uint8

const (
	// ModeNone: unmonitored (single-threaded phase, §4.3 optimization 1).
	ModeNone Mode = iota
	// ModeIdle: between regions (around a synchronization operation).
	ModeIdle
	// ModeFast: inside a hardware transaction.
	ModeFast
	// ModeSlow: executing a region under the software detector.
	ModeSlow
)

func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "none"
	case ModeIdle:
		return "idle"
	case ModeFast:
		return "fast"
	case ModeSlow:
		return "slow"
	default:
		return "?"
	}
}

// Cause records why a region ended up on the slow path.
type Cause uint8

const (
	// CauseNone: not on the slow path.
	CauseNone Cause = iota
	// CauseConflict: an HTM data-conflict abort (genuine or TxFail-induced).
	CauseConflict
	// CauseCapacity: transactional footprint overflow.
	CauseCapacity
	// CauseUnknown: an unexplained abort (interrupt, hidden syscall, ...).
	CauseUnknown
	// CauseSmall: region statically below the K-access threshold (§4.3).
	CauseSmall
	// CauseNoHW: no free hardware transaction context (§6 reason 4).
	CauseNoHW
	// CauseGovernor: the fallback governor forced the region onto the slow
	// path (degraded thread or run-wide degradation window).
	CauseGovernor
)

func (c Cause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseConflict:
		return "conflict"
	case CauseCapacity:
		return "capacity"
	case CauseUnknown:
		return "unknown"
	case CauseSmall:
		return "small"
	case CauseNoHW:
		return "nohw"
	case CauseGovernor:
		return "governor"
	default:
		return "?"
	}
}

// CutMode selects the loop-cut optimization scheme (§4.3, Fig. 9).
type CutMode uint8

const (
	// NoCut: every capacity abort falls back to the slow path.
	NoCut CutMode = iota
	// DynCut: thresholds start at 2 after a loop's first capacity abort and
	// adapt at runtime (TxRace-DynLoopcut).
	DynCut
	// ProfCut: thresholds are preloaded from a profiling run
	// (TxRace-ProfLoopcut) and adapted the same way.
	ProfCut
)

func (m CutMode) String() string {
	switch m {
	case NoCut:
		return "TxRace-NoOpt"
	case DynCut:
		return "TxRace-DynLoopcut"
	case ProfCut:
		return "TxRace-ProfLoopcut"
	default:
		return "?"
	}
}

// LoopThresholds maps loops to initial loop-cut thresholds, as produced by a
// profiling run (instrument.Profile) for TxRace-ProfLoopcut.
type LoopThresholds map[sim.LoopID]int

// Clone returns a copy, so a profile can be reused across runs.
func (lt LoopThresholds) Clone() LoopThresholds {
	c := make(LoopThresholds, len(lt))
	for k, v := range lt {
		c[k] = v
	}
	return c
}

// txFailBase is where the runtime's own globals live: far above any workload
// allocation, on a dedicated cache line.
const txFailBase memmodel.Addr = 1 << 40

// Stats aggregates runtime events for Table 1 and Figure 7.
type Stats struct {
	CommittedTxns    uint64 // fast-path transactions committed (incl. loop cuts)
	ConflictAborts   uint64 // data-conflict aborts, incl. TxFail-induced
	ArtificialAborts uint64 // subset of ConflictAborts caused by TxFail
	CapacityAborts   uint64
	UnknownAborts    uint64
	Retries          uint64 // pure-retry aborts retried on the fast path
	UnknownRetries   uint64 // unknown aborts retried under the governor's budget
	LoopCuts         uint64 // transactions split by the loop-cut optimization

	SlowRegions map[Cause]uint64 // slow-path region executions by cause

	// Fallback-governor activity (zero when the governor is disabled).
	ForcedSlow         uint64 // regions forced onto the slow path (== SlowRegions[CauseGovernor])
	GovernorTrips      uint64 // per-thread abort-rate tripwire degradations
	GovernorProbes     uint64 // fast-path recovery probes attempted
	GovernorRecoveries uint64 // probes that committed and re-entered HTM mode
	GovernorGlobal     uint64 // run-wide degradation windows engaged

	// Overhead attribution in cycles, for the Fig. 7 breakdown.
	CyclesFastPath int64 // xbegin/xend, TxFail reads, fast-path sync tracking
	CyclesConflict int64 // aborted work + re-execution for conflict aborts
	CyclesCapacity int64 // same for capacity aborts
	CyclesUnknown  int64 // same for unknown aborts
	CyclesSmall    int64 // slow-path hook cost in small regions
	CyclesGovernor int64 // slow-path hook cost in governor-forced regions
}
