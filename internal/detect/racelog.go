package detect

import "sort"

// RaceLog records races in first-occurrence order, deduplicated by static
// pair: the paper counts "static instances" (§8.3), so later dynamic
// occurrences of a reported pair are dropped. Each entry carries the event
// index of the access that completed it, the key MergeLogs uses to restore
// one sequential order from logs filled in parallel. The zero value is
// empty and ready to use.
type RaceLog struct {
	seen   map[PairKey]struct{}
	races  []Race
	at     []uint64 // at[i] is the event index that completed races[i]
	onRace func(Race)
}

func (l *RaceLog) report(r Race, idx uint64) {
	k := r.Key()
	if _, dup := l.seen[k]; dup {
		return
	}
	if l.seen == nil {
		l.seen = make(map[PairKey]struct{})
	}
	l.seen[k] = struct{}{}
	l.races = append(l.races, r)
	l.at = append(l.at, idx)
	if l.onRace != nil {
		l.onRace(r)
	}
}

// OnRace registers a callback invoked once per distinct static race.
func (l *RaceLog) OnRace(f func(Race)) { l.onRace = f }

// RaceCount returns the number of distinct static races found.
func (l *RaceLog) RaceCount() int { return len(l.races) }

// Races returns the distinct races in first-detection order.
func (l *RaceLog) Races() []Race { return append(make([]Race, 0, len(l.races)), l.races...) }

// RaceKeys returns the normalized static pairs, sorted, for set comparisons
// between detector runs (recall computation in Table 2 / Fig. 10).
func (l *RaceLog) RaceKeys() []PairKey { return SortedKeys(l.races) }

// SortedKeys returns the normalized static pairs of races, sorted.
func SortedKeys(races []Race) []PairKey {
	out := make([]PairKey, 0, len(races))
	for _, r := range races {
		out = append(out, r.Key())
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// MergeLogs restores the sequential race list from logs that analyzed
// disjoint subsets of one event stream: a k-way merge by ascending event
// index (each index lives in exactly one log, so the order is total),
// deduplicated by static pair across logs.
func MergeLogs(logs []*RaceLog) []Race {
	pos := make([]int, len(logs))
	seen := make(map[PairKey]struct{})
	var out []Race
	for {
		best := -1
		for i, l := range logs {
			if pos[i] < len(l.races) && (best < 0 || l.at[pos[i]] < logs[best].at[pos[best]]) {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		r := logs[best].races[pos[best]]
		pos[best]++
		if _, dup := seen[r.Key()]; !dup {
			seen[r.Key()] = struct{}{}
			out = append(out, r)
		}
	}
}
