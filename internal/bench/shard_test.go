package bench

import "testing"

// TestWireRows pins the v2 wire win on the bench trace: the varint+delta
// encoding must be at least 2x smaller per event than v1's fixed records.
func TestWireRows(t *testing.T) {
	rows, err := WireRows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Version != 1 || rows[1].Version != 2 {
		t.Fatalf("want v1+v2 rows, got %+v", rows)
	}
	if rows[1].Bytes*2 >= rows[0].Bytes {
		t.Fatalf("v2 %d bytes, not 2x smaller than v1's %d", rows[1].Bytes, rows[0].Bytes)
	}
}

// TestShardScalingConsistent: every shard count must find the same races on
// the bench trace (throughput may differ; answers may not).
func TestShardScalingConsistent(t *testing.T) {
	rows, err := ShardScaling([]int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Races != rows[1].Races {
		t.Fatalf("shard counts disagree: %+v", rows)
	}
	if rows[0].Races == 0 {
		t.Fatal("bench trace finds no races; throughput rows measure nothing interesting")
	}
}

// TestShardRatios: every detect/shard/N row is reported against the
// detect/replay row, in suite order; without that row there is no ratio.
func TestShardRatios(t *testing.T) {
	rs := []Result{
		synthetic("detect/replay", 2000, 10),
		synthetic("detect/shard/1", 2200, 10),
		synthetic("detect/shard/8", 1500, 10),
	}
	got := ShardRatios(rs)
	want := []ShardRatio{{"detect/shard/1", "1.10"}, {"detect/shard/8", "0.75"}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("ShardRatios = %+v, want %+v", got, want)
	}
	if r := ShardRatios(rs[1:]); r != nil {
		t.Fatalf("ratios without a detect/replay row: %+v", r)
	}
}
