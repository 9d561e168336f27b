// Package server turns the offline FastTrack detector into a parallel,
// streaming detection service. The address space is partitioned by shadow
// page (the same geometry shadow.PageTable uses) and every shard runs its
// own detect.FastTrack kernel over a private shadow memory. One sequential
// detect.Clocks — the happens-before core every detector shares — replays
// the synchronization events and hands each access a copy-on-write snapshot
// of its thread's clock. All accesses to one address land in one shard in
// trace order, and a thread's clock only changes at sync operations, so each
// shard sees exactly the clocks the sequential detector would: race sets
// merge back byte-identical (DESIGN.md §12).
package server

import (
	"repro/internal/detect"
	"repro/internal/memmodel"
	"repro/internal/shadow"
	"repro/internal/trace"
)

// shardOf maps an address to its shard: accesses on the same 512-granule
// shadow page (shadow.PageShift) always share a shard, so shard state keeps
// the page-level locality the single-detector page table has.
func shardOf(addr memmodel.Addr, shards int) int {
	return int((memmodel.WordOf(addr) >> shadow.PageShift) % uint64(shards))
}

// Report is the outcome of a sharded detection run, online or offline. Its
// accessors mirror detect.Detector's so callers can diff the two directly.
type Report struct {
	Name   string
	Shards int
	// Events is every event ingested; Checks the accesses analyzed; Shed
	// the accesses dropped by the overload governor (offline runs never
	// shed, so Checks+Shed equals the trace's access count either way).
	Events        uint64
	Checks        uint64
	Shed          uint64
	GovernorTrips uint64
	races         []detect.Race
}

// Sampled reports whether the governor shed any accesses: the run degraded
// to sampling-mode detection and the race set is a subset of the full one.
func (r *Report) Sampled() bool { return r.Shed > 0 }

// Coverage is the fraction of accesses analyzed (1 when nothing was shed);
// the sampling-mode recall bound reported to clients.
func (r *Report) Coverage() float64 {
	total := r.Checks + r.Shed
	if total == 0 {
		return 1
	}
	return float64(r.Checks) / float64(total)
}

// RaceCount returns the number of distinct static races found.
func (r *Report) RaceCount() int { return len(r.races) }

// Races returns the distinct races in first-detection order.
func (r *Report) Races() []detect.Race { return r.races }

// RaceKeys returns the normalized static pairs, sorted, like
// detect.Detector.RaceKeys.
func (r *Report) RaceKeys() []detect.PairKey { return detect.SortedKeys(r.races) }

// ReplaySharded analyzes a recorded trace with `shards` address shards on
// `jobs` detection workers (0 or more than shards = one per shard): it
// feeds the trace through a lossless Session. The race list is
// byte-identical to trace.Replay(t).Races() at every shard and worker count.
// The error is always nil; it is kept for callers that treat replay as
// fallible.
func ReplaySharded(t *trace.Trace, shards, jobs int) (*Report, error) {
	s := NewSession(SessionConfig{Shards: shards, Workers: jobs})
	t.ForEach(s.Feed)
	return s.Finish(t.Name), nil
}
