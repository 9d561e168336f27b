package trace

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/detect"
	"repro/internal/memmodel"
	"repro/internal/shadow"
	"repro/internal/sim"
)

// fuzzSeedTrace is a small genuine trace exercising every event kind and
// both delta-coded fields.
func fuzzSeedTrace() *Trace {
	return FromEvents("seed",
		Event{Kind: KFork, TID: 0, Other: 1},
		Event{Kind: KAccess, TID: 1, Write: true, Site: 7, Addr: 0x40},
		Event{Kind: KAccess, TID: 1, Site: 7, Addr: 0x48},
		Event{Kind: KAcquire, TID: 2, Sync: 9},
		Event{Kind: KRelease, TID: 2, Sync: 9},
		Event{Kind: KJoin, TID: 0, Other: 1},
	)
}

// normalizeV2 clears the fields the v2 wire format does not carry for a
// kind (the flags byte always carries Kind/Write/SyncKind; the payload
// varints are kind-specific), so round-trip comparisons test exactly what
// the format promises to preserve.
func normalizeV2(e Event) Event {
	switch e.Kind {
	case KAccess:
		e.Sync, e.Other = 0, 0
	case KAcquire, KRelease:
		e.Addr, e.Site, e.Other = 0, 0, 0
	case KFork, KJoin:
		e.Addr, e.Site, e.Sync = 0, 0, 0
	}
	return e
}

// FuzzReadFrom hardens the trace deserializer against corrupt and
// adversarial inputs across both wire versions: it must never panic, and on
// inputs it accepts, a re-serialization round trip (in either version) must
// preserve the decoded events.
func FuzzReadFrom(f *testing.F) {
	// Seed with genuine traces in both wire versions and a few mutations.
	tr := fuzzSeedTrace()
	var v1, v2 bytes.Buffer
	tr.WriteToV1(&v1)
	tr.WriteTo(&v2)
	f.Add(v1.Bytes())
	f.Add(v2.Bytes())
	f.Add([]byte("TXTR"))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	// Truncation seeds: both versions cut mid-record, plus headers cut
	// mid-name and mid-count. All must be rejected, never short-read.
	f.Add(v1.Bytes()[:v1.Len()-13])
	f.Add(v2.Bytes()[:v2.Len()-2])
	f.Add(v1.Bytes()[:6])                  // header cut before name length is honored
	f.Add(v2.Bytes()[:8+len(tr.Name)-2])   // cut mid-name
	f.Add(v1.Bytes()[:8+len(tr.Name)+3])   // cut mid-count
	f.Add(v2.Bytes()[:8+len(tr.Name)+8+1]) // exactly one payload byte
	// Hostile thread ids: a v1 access at tid -5 and a v2 access at tid
	// 1<<30. Both must be rejected before any detector indexes by them.
	neg := append([]byte(nil), v1.Bytes()...)
	binary.LittleEndian.PutUint32(neg[8+len(tr.Name)+8+recordSizeV1+4:], uint32(0xfffffffb))
	f.Add(neg)
	huge := append([]byte(nil), v2.Bytes()[:8+len(tr.Name)+8]...)
	huge = append(huge, byte(KAccess))
	huge = binary.AppendUvarint(huge, 1<<30)
	f.Add(append(huge, 0, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadFrom(bytes.NewReader(data))
		if err != nil {
			return
		}
		// v1 re-encode is lossless for anything v1 decoded.
		var out bytes.Buffer
		if _, err := got.WriteToV1(&out); err != nil {
			t.Fatalf("accepted trace failed to re-serialize as v1: %v", err)
		}
		again, err := ReadFrom(&out)
		if err != nil {
			t.Fatalf("v1 round trip of accepted trace rejected: %v", err)
		}
		if again.Len() != got.Len() {
			t.Fatalf("v1 round trip changed event count: %d vs %d", again.Len(), got.Len())
		}
		for i := 0; i < got.Len(); i++ {
			if got.At(i) != again.At(i) {
				t.Fatalf("v1 round trip changed event %d: %+v vs %+v", i, got.At(i), again.At(i))
			}
		}
		// v2 re-encode may refuse out-of-range tids or unknown kinds a v1
		// input carried; when it accepts, the round trip must preserve the
		// fields v2 carries.
		out.Reset()
		if _, err := got.WriteTo(&out); err != nil {
			return
		}
		again, err = ReadFrom(&out)
		if err != nil {
			t.Fatalf("v2 round trip of accepted trace rejected: %v", err)
		}
		if again.Len() != got.Len() {
			t.Fatalf("v2 round trip changed event count: %d vs %d", again.Len(), got.Len())
		}
		for i := 0; i < got.Len(); i++ {
			if want := normalizeV2(got.At(i)); again.At(i) != want {
				t.Fatalf("v2 round trip changed event %d: %+v vs %+v", i, again.At(i), want)
			}
		}
	})
}

// FuzzWireV2Events drives the v2 delta coder with event sequences derived
// from fuzz input: every writable trace must round-trip bit-for-bit through
// encode/decode, including pathological address jumps (delta wraparound)
// and interleaved threads.
func FuzzWireV2Events(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 250, 251, 252, 253, 254, 255})
	f.Add(bytes.Repeat([]byte{0xa5, 3, 0}, 40))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr := &Trace{Name: "fuzz"}
		// Stretch the fuzz bytes into a deterministic event sequence: 5
		// bytes per event, fields spread over interesting ranges.
		for i := 0; i+5 <= len(data); i += 5 {
			tr.Append(Event{
				Kind:     Kind(data[i] % byte(kindCount)),
				TID:      int32(data[i+1] % 16),
				Write:    data[i+2]&1 == 1,
				SyncKind: sim.SyncKind(data[i+2] >> 1 & 7),
				Site:     shadow.SiteID(uint32(data[i+3]) << (data[i+4] % 24)),
				Sync:     detect.SyncID(uint32(data[i+3])),
				Addr:     memmodel.Addr(uint64(data[i+4]) << (data[i+3] % 56)),
				Other:    int32(data[i+4] % 16),
			})
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatalf("encode of in-range events failed: %v", err)
		}
		back, err := ReadFrom(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if back.Len() != tr.Len() {
			t.Fatalf("event count changed: %d vs %d", back.Len(), tr.Len())
		}
		for i := 0; i < tr.Len(); i++ {
			if want := normalizeV2(tr.At(i)); back.At(i) != want {
				t.Fatalf("event %d changed: %+v vs %+v", i, back.At(i), want)
			}
		}
	})
}
