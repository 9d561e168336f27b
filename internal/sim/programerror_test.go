package sim

import (
	"errors"
	"strings"
	"testing"
)

// wantProgramError asserts err is a *ProgramError with the given op and
// offending thread.
func wantProgramError(t *testing.T, err error, op string, thread int) {
	t.Helper()
	var pe *ProgramError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *ProgramError", err)
	}
	if pe.Op != op || pe.Thread != thread {
		t.Fatalf("ProgramError = %+v, want op %q on t%d", pe, op, thread)
	}
}

// TestProgramErrorIdenticalBothModes pins the structured-error contract: a
// malformed program surfaces a *ProgramError with the offending op, thread,
// pc and object, and a one-line "malformed program" message. (The name dates
// from when a second interpreter had to agree on every field.)
func TestProgramErrorIdenticalBothModes(t *testing.T) {
	progs := map[string]*Program{
		"unlock-unowned":    {Workers: [][]Instr{{&Compute{Cycles: 5}, &Unlock{M: 7}}}},
		"runlock-no-hold":   {Workers: [][]Instr{{&Compute{Cycles: 5}, &RUnlock{M: 3}}}},
		"wunlock-no-hold":   {Workers: [][]Instr{{&Compute{Cycles: 5}, &WUnlock{M: 4}}}},
		"condwait-no-mutex": {Workers: [][]Instr{{&Compute{Cycles: 5}, &CondWait{C: 9, M: 2}}}},
		"barrier-zero-n":    {Workers: [][]Instr{{&Compute{Cycles: 5}, &Barrier{B: 6, N: 0}}}},
		"barrier-negative":  {Workers: [][]Instr{{&Compute{Cycles: 5}, &Barrier{B: 6, N: -3}}}},
		"random-zero-range": {Workers: [][]Instr{{&Compute{Cycles: 5}, &MemAccess{Addr: AddrExpr{Mode: AddrRandom}, Site: 1}}}},
		"atomic-zero-range": {Workers: [][]Instr{{&Compute{Cycles: 5}, &AtomicRMW{Addr: AddrExpr{Mode: AddrRandom}, Site: 1}}}},
	}
	for name, p := range progs {
		t.Run(name, func(t *testing.T) {
			_, err := NewEngine(quiet()).Run(p, &NopRuntime{})
			var pe *ProgramError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want *ProgramError", err)
			}
			if pe.Thread != 1 {
				t.Fatalf("thread = %d, want 1 (the only worker)", pe.Thread)
			}
			if !strings.Contains(pe.Error(), "malformed program") {
				t.Fatalf("message %q lacks the malformed-program marker", pe.Error())
			}
			if pe.PC != 1 {
				t.Fatalf("pc = %d, want 1 (second instruction)", pe.PC)
			}
		})
	}
}

// TestUnmatchedJoinIsStructuredDeadlock pins the runtime shape of a join of
// a thread that never signals back (the frontend's lowering of `<-done` and
// wg.Wait is a semaphore Wait): a structured DeadlockError naming every
// blocked thread and pc — not a panic, not an opaque string.
func TestUnmatchedJoinIsStructuredDeadlock(t *testing.T) {
	p := &Program{Workers: [][]Instr{
		{&Compute{Cycles: 5}},
		{&Compute{Cycles: 5}, &Wait{C: 1}}, // no one ever signals
	}}
	_, err := NewEngine(quiet()).Run(p, &NopRuntime{})
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *DeadlockError", err)
	}
	// Main (t0) is blocked at its implicit join, the waiter (t2) at the Wait.
	want := []BlockedThread{{Thread: 0, PC: 1}, {Thread: 2, PC: 1}}
	if len(de.Blocked) != 2 || de.Blocked[0] != want[0] || de.Blocked[1] != want[1] {
		t.Fatalf("blocked = %+v, want %+v", de.Blocked, want)
	}
	if !strings.Contains(de.Error(), "deadlock") {
		t.Fatalf("message %q lacks the deadlock marker", de.Error())
	}
}

// TestProgramErrorFields spot-checks the carried context on one shape.
func TestProgramErrorFields(t *testing.T) {
	p := &Program{Workers: [][]Instr{
		{&Compute{Cycles: 1}},
		{&Unlock{M: 42}},
	}}
	_, err := NewEngine(quiet()).Run(p, &NopRuntime{})
	var pe *ProgramError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *ProgramError", err)
	}
	if pe.Thread != 2 || pe.Object != 42 || pe.PC != 0 || pe.Op != "unlock" {
		t.Fatalf("ProgramError = %+v, want t2 pc=0 unlock(42)", pe)
	}
}
