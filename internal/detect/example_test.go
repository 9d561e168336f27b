package detect_test

import (
	"fmt"

	"repro/internal/detect"
)

// The canonical unlock-free sharing bug: two threads store to the same word
// with no synchronization between them.
func ExampleDetector() {
	d := detect.New()
	d.Write(0, 0x1000, 101) // thread 0, static site 101
	d.Write(1, 0x1000, 202) // thread 1, static site 202 — racy
	for _, r := range d.Races() {
		fmt.Println(r)
	}
	// Output:
	// race @0x1000: site 101 (tid 0, write=true) vs site 202 (tid 1, write=true)
}

// Lock ordering suppresses the report: the release/acquire pair carries the
// happens-before edge.
func ExampleDetector_lockOrdering() {
	d := detect.New()
	const mu = detect.SyncID(1)
	d.Acquire(0, mu)
	d.Write(0, 0x1000, 101)
	d.Release(0, mu)
	d.Acquire(1, mu)
	d.Write(1, 0x1000, 202)
	d.Release(1, mu)
	fmt.Println("races:", d.RaceCount())
	// Output:
	// races: 0
}

// The Eraser-style lockset detector flags lock-discipline violations — and
// famously also flags correct signal/wait handoffs, which is why TxRace's
// slow path is happens-before-based.
func ExampleLocksetDetector() {
	d := detect.NewLockset()
	d.Access(0, 0x2000, true, 11)
	// A condition-variable handoff orders the accesses in reality, but the
	// lockset algorithm cannot see it:
	d.Access(1, 0x2000, true, 22)
	fmt.Println("violations:", d.RaceCount())
	// Output:
	// violations: 1
}
