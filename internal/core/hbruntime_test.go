package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/instrument"
	"repro/internal/memmodel"
	"repro/internal/sim"
)

// runTSanFamily runs p, instrumented for TSan, under rt.
func runTSanFamily(t *testing.T, p *sim.Program, rt sim.Runtime) {
	t.Helper()
	if _, err := sim.NewEngine(quietConfig()).Run(instrument.ForTSan(p), rt); err != nil {
		t.Fatal(err)
	}
}

// twoWriters returns a program whose two workers each write x reps times,
// at sites 10 and 20, optionally holding one mutex around every write.
func twoWriters(reps int, locked bool) *sim.Program {
	const mu sim.SyncID = 1
	x := memmodel.NewAllocator(1 << 20).AllocLine()
	worker := func(site sim.SiteID) []sim.Instr {
		var body []sim.Instr
		for i := 0; i < reps; i++ {
			w := &sim.MemAccess{Write: true, Addr: sim.Fixed(x), Site: site}
			if locked {
				body = append(body, &sim.Lock{M: mu}, w, &sim.Unlock{M: mu})
			} else {
				body = append(body, w)
			}
		}
		return body
	}
	return &sim.Program{Name: "writers", Workers: [][]sim.Instr{worker(10), worker(20)}}
}

// TestBoundedRuntimeSeesAtomics: an atomic RMW leaves a shadow write, so a
// plain write unordered with it is a race under the exact and the bounded
// detector alike (the mixed atomic/plain access rule).
func TestBoundedRuntimeSeesAtomics(t *testing.T) {
	x := memmodel.NewAllocator(1 << 20).AllocLine()
	p := &sim.Program{Name: "mixed", Workers: [][]sim.Instr{
		{&sim.AtomicRMW{Addr: sim.Fixed(x), Site: 1000}},
		{&sim.MemAccess{Write: true, Addr: sim.Fixed(x), Site: 1001}},
	}}
	tsan := core.NewTSan()
	runTSanFamily(t, p, tsan)
	bounded := core.NewTSanBounded(4, 1)
	runTSanFamily(t, p, bounded)
	if got := tsan.Detector().RaceCount(); got != 1 {
		t.Errorf("tsan: %d races, want 1", got)
	}
	if got := bounded.Detector().RaceCount(); got != 1 {
		t.Errorf("bounded: %d races, want 1", got)
	}
}

func TestSamplerAtFullRateEqualsDetector(t *testing.T) {
	rt := core.NewSampling(1.0, 1)
	runTSanFamily(t, twoWriters(1, false), rt)
	if rt.Detector().RaceCount() != 1 {
		t.Fatal("full-rate sampler must behave like the detector")
	}
	if got := rt.Detector().Checks; got != 2 {
		t.Fatalf("analyzed %d of 2 accesses", got)
	}
}

func TestSamplerAtZeroRateSeesNothing(t *testing.T) {
	rt := core.NewSampling(0, 1)
	runTSanFamily(t, twoWriters(100, false), rt)
	if rt.Detector().RaceCount() != 0 || rt.Detector().Checks != 0 {
		t.Fatal("zero-rate sampler analyzed accesses")
	}
}

func TestSamplerTracksSyncAtAnyRate(t *testing.T) {
	// Sync edges are never sampled away, so sampled accesses stay
	// correctly ordered.
	rt := core.NewSampling(1.0, 1)
	runTSanFamily(t, twoWriters(1, true), rt)
	if rt.Detector().RaceCount() != 0 {
		t.Fatal("sampler lost sync edges")
	}
}

func TestSamplerBadRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("rate > 1 must panic")
		}
	}()
	core.NewSampling(1.5, 1)
}
