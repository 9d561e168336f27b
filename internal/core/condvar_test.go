package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/instrument"
	"repro/internal/memmodel"
	"repro/internal/sim"
)

// buildHandoff is the classic producer/consumer handoff through a condition
// variable: the producer fills a buffer unlocked, then signals under the
// mutex; the consumer waits and reads the buffer. Correctly synchronized —
// and exactly the pattern Eraser-style lockset analysis flags while
// happens-before analysis accepts.
func buildHandoff() *sim.Program {
	al := memmodel.NewAllocator(1 << 20)
	buf := al.AllocWords(32)
	mu, cv := sim.SyncID(1), sim.SyncID(2)

	producer := []sim.Instr{
		// Fill the buffer before publication (no lock held: the handoff
		// orders it).
		&sim.MemAccess{Write: true, Addr: sim.Fixed(buf), Site: 100},
		&sim.MemAccess{Write: true, Addr: sim.Fixed(buf + 8), Site: 101},
		&sim.MemAccess{Write: true, Addr: sim.Fixed(buf + 16), Site: 102},
		&sim.MemAccess{Write: true, Addr: sim.Fixed(buf + 24), Site: 103},
		&sim.MemAccess{Write: true, Addr: sim.Fixed(buf + 32), Site: 104},
		&sim.Lock{M: mu},
		&sim.CondSignal{C: cv},
		&sim.Unlock{M: mu},
		&sim.Compute{Cycles: 10},
	}
	consumer := []sim.Instr{
		&sim.Lock{M: mu},
		&sim.CondWait{C: cv, M: mu},
		&sim.Unlock{M: mu},
		&sim.MemAccess{Write: false, Addr: sim.Fixed(buf), Site: 200},
		&sim.MemAccess{Write: false, Addr: sim.Fixed(buf + 8), Site: 201},
		&sim.MemAccess{Write: false, Addr: sim.Fixed(buf + 16), Site: 202},
		&sim.MemAccess{Write: false, Addr: sim.Fixed(buf + 24), Site: 203},
		&sim.MemAccess{Write: false, Addr: sim.Fixed(buf + 32), Site: 204},
	}
	// The consumer must be waiting before the producer signals (condvars do
	// not buffer): stagger the producer behind a startup compute.
	producer = append([]sim.Instr{&sim.Compute{Cycles: 2_000}}, producer...)
	return &sim.Program{Name: "handoff", Workers: [][]sim.Instr{producer, consumer}}
}

// TestCondvarHandoffNoFalsePositives: both TSan and TxRace must accept the
// condvar-ordered buffer handoff (the Fig. 6 class of situation, with real
// pthread_cond semantics).
func TestCondvarHandoffNoFalsePositives(t *testing.T) {
	ts := core.NewTSan()
	if _, err := sim.NewEngine(quietConfig()).Run(instrument.ForTSan(buildHandoff()), ts); err != nil {
		t.Fatal(err)
	}
	if ts.Detector().RaceCount() != 0 {
		t.Fatalf("TSan flagged the handoff: %v", ts.Detector().Races())
	}

	tx := core.NewTxRace(core.Options{})
	if _, err := sim.NewEngine(quietConfig()).Run(
		instrument.ForTxRace(buildHandoff(), instrument.DefaultOptions()), tx); err != nil {
		t.Fatal(err)
	}
	if tx.Detector().RaceCount() != 0 {
		t.Fatalf("TxRace flagged the handoff: %v", tx.Detector().Races())
	}
}

// TestCondvarHandoffTripsLockset: the same program under the Eraser baseline
// produces the classic false positive (the buffer is never accessed under a
// common lock), which is the §9 argument for happens-before slow paths.
func TestCondvarHandoffTripsLockset(t *testing.T) {
	ls := core.NewLockset()
	if _, err := sim.NewEngine(quietConfig()).Run(instrument.ForTSan(buildHandoff()), ls); err != nil {
		t.Fatal(err)
	}
	if ls.Detector().RaceCount() == 0 {
		t.Fatal("lockset did not flag the lock-free handoff — the baseline is broken")
	}
}
