package main

import (
	"sync"
	"time"
)

// The machines this benchmark runs on are shared, and their speed drifts by
// a fifth or more within a minute. On a 2-vCPU VM, a fixed loop of random
// reads and writes over 8 MB took 207–328 ms from one second to the next,
// with steal time under 0.3%, and the benchmark's own runs spent all their
// wall time on the CPU. Wall times of the program alone would mostly measure
// that drift. So the benchmark times a fixed reference kernel next to every
// timed operation and every set-up, and scales each measured wall time by
// refNominal over the kernel's time around it: a time is reported as it
// would read on a host where the kernel takes refNominal. The kernel is
// code of this package only, so no change to the program moves it; each
// run prints the raw wall figures and the kernel's own times beside the
// scaled ones.

// refNominal is a round figure at the slow end of the kernel's times on the
// 2-vCPU, 2.1 GHz Xeon VM the benchmark was defined on, where the median
// of a run ranged 1.2–2.4 ms.
const refNominal = 2400 * time.Microsecond

const (
	refSteps    = 700_000 // interpreted instructions per run of the kernel
	refCodeBits = 12      // the kernel's program has 1<<refCodeBits instructions
	refMemBits  = 16      // and a memory of 1<<refMemBits words (512 KB)
	refMapKeys  = 1024
)

// hostRef is the reference kernel: a small byte-code interpreter running a
// fixed random program, which is what the program under test spends its
// time on too (the simulator dispatches instructions, the detectors and
// the trace decoder branch on event kinds). Its dispatch is unpredictable,
// its data fit in the L2 cache, and it reads a small map. Such code slows
// with the host much as the program does; an earlier kernel of cache
// misses over 12 MB moved a third as much as the workloads did when the
// host's speed changed. It allocates nothing, so it does not move the
// program's allocation or garbage-collection figures.
type hostRef struct {
	code []uint8
	mem  []uint64
	m    map[uint64]uint64
	r    [4]uint64
}

var host = sync.OnceValue(newHostRef)

func newHostRef() *hostRef {
	h := &hostRef{
		code: make([]uint8, 1<<refCodeBits),
		mem:  make([]uint64, 1<<refMemBits),
		m:    make(map[uint64]uint64, refMapKeys),
		r:    [4]uint64{3, 1, 2, 3},
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := range h.code {
		x = x*6364136223846793005 + 1442695040888963407
		h.code[i] = uint8(x >> 61)
	}
	for k := uint64(0); k < refMapKeys; k++ {
		h.m[k] = k
	}
	return h
}

// sample runs the kernel once and returns its wall time in seconds.
func (h *hostRef) sample() float64 {
	start := time.Now()
	const codeMask, memMask = 1<<refCodeBits - 1, 1<<refMemBits - 1
	r := h.r
	pc := 0
	for i := 0; i < refSteps; i++ {
		op := h.code[pc]
		pc = (pc + 1) & codeMask
		switch op {
		case 0:
			r[0] += r[1]
		case 1:
			r[1] ^= r[0] >> 7
		case 2:
			r[2] = h.mem[r[0]&memMask]
		case 3:
			h.mem[r[1]&memMask] = r[2] + r[3]
		case 4:
			if r[0]&1 == 0 {
				pc = int(r[2] & codeMask)
			}
		case 5:
			r[3] = r[3]*6364136223846793005 + 1442695040888963407
		case 6:
			r[0] += h.m[r[3]%refMapKeys]
		default:
			r[1] = r[1]<<3 | r[1]>>61
		}
	}
	h.r = r
	return time.Since(start).Seconds()
}

// scaled returns the wall time d, in seconds, as it would read on a host
// at the reference speed, given the kernel's times just before and just
// after it.
func scaled(d, refBefore, refAfter float64) float64 {
	return d * refNominal.Seconds() * 2 / (refBefore + refAfter)
}
