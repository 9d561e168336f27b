package detect

import "testing"

// TestSnapshotIsolation pins the copy-on-write contract: a snapshot handed
// out before a sync operation must not observe the mutation.
func TestSnapshotIsolation(t *testing.T) {
	h := NewClocks(Config{CollapseEvery: -1})
	h.Fork(0, 1)
	snap := h.Snapshot(1)
	before := snap.Get(1)
	h.Release(1, 3)
	if got := snap.Get(1); got != before {
		t.Fatalf("snapshot mutated by later release: %d -> %d", before, got)
	}
	if now := h.Snapshot(1).Get(1); now != before+1 {
		t.Fatalf("core clock not advanced: %d, want %d", now, before+1)
	}
}
