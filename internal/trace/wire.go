package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/detect"
	"repro/internal/memmodel"
	"repro/internal/shadow"
	"repro/internal/sim"
)

// Serialization. Two wire versions share the header:
//
//	magic "TXTR" | version u16 | name len u16 | name | event count u64
//
// Version 1 follows with fixed 28-byte little-endian records:
//
//	kind u8 | flags u8 | synckind u8 | pad u8 |
//	tid i32 | other i32 | site u32 | sync u32 | addr u64
//
// Version 2 is varint + per-thread delta coded. Each event is:
//
//	b0: kind (3 bits) | write (bit 3) | synckind (3 bits, from bit 4)
//	uvarint tid
//	then by kind:
//	  KAccess:          zigzag(addr - lastAddr[tid]), zigzag(site - lastSite[tid])
//	  KAcquire/KRelease: uvarint sync
//	  KFork/KJoin:       uvarint other
//
// The per-thread deltas exploit the recorder's locality: a thread's next
// access is usually a short stride from its previous one and repeats the
// same few static sites, so most access events fit in 3–5 bytes against
// v1's 28. The v1 reader is kept; ReadFrom and NewStreamReader dispatch on
// the header's version field. WriteTo emits v2; WriteToV1 keeps the fixed
// format for tooling that wants it.
const (
	magic        = "TXTR"
	version1     = 1
	version2     = 2
	recordSizeV1 = 1 + 1 + 1 + 1 + 4 + 4 + 4 + 4 + 8

	// maxEvents bounds what a header may claim, so corrupt counts fail
	// fast instead of looping for 2^64 records.
	maxEvents = 1 << 30
	// maxTID bounds the thread ids either wire version carries: the v2
	// delta state and every detector's thread table are indexed by tid,
	// and a hostile record must not make them allocate gigabytes.
	maxTID = 1 << 22
)

// checkEvent is the wire format's one range check. Both readers apply it to
// every decoded event and both writers before encoding one, so neither
// version writes what it would refuse to read. Thread ids must lie in
// [0, maxTID]: the acting thread always, the other thread on fork/join.
func checkEvent(e *Event) error {
	switch {
	case e.Kind >= kindCount:
		return fmt.Errorf("invalid event kind %d", e.Kind)
	case e.SyncKind > 7:
		return fmt.Errorf("invalid sync kind %d", e.SyncKind)
	case e.TID < 0 || e.TID > maxTID:
		return fmt.Errorf("thread id %d out of range [0, %d]", e.TID, maxTID)
	case (e.Kind == KFork || e.Kind == KJoin) && (e.Other < 0 || e.Other > maxTID):
		return fmt.Errorf("fork/join thread id %d out of range [0, %d]", e.Other, maxTID)
	}
	return nil
}

// wireTID narrows a decoded v2 thread id, saturating so an out-of-range
// varint stays out of range for checkEvent instead of wrapping into it.
func wireTID(u uint64) int32 { return int32(min(u, math.MaxInt32)) }

// WriteTo serializes the trace in the current wire version (v2).
func (t *Trace) WriteTo(w io.Writer) (int64, error) { return t.writeVersion(w, version2) }

// WriteToV1 serializes the trace in the fixed-record v1 format.
func (t *Trace) WriteToV1(w io.Writer) (int64, error) { return t.writeVersion(w, version1) }

func (t *Trace) writeVersion(w io.Writer, v int) (int64, error) {
	cw := &countingWriter{w: bufio.NewWriter(w)}
	if err := t.writeHeader(cw, v); err != nil {
		return cw.n, err
	}
	var err error
	switch v {
	case version1:
		err = t.writeEventsV1(cw)
	case version2:
		err = t.writeEventsV2(cw)
	default:
		err = fmt.Errorf("trace: unknown writer version %d", v)
	}
	if err != nil {
		return cw.n, err
	}
	return cw.n, cw.w.(*bufio.Writer).Flush()
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(b []byte) (int, error) {
	m, err := cw.w.Write(b)
	cw.n += int64(m)
	return m, err
}

func (t *Trace) writeHeader(w io.Writer, v int) error {
	if _, err := w.Write([]byte(magic)); err != nil {
		return err
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint16(hdr[0:], uint16(v))
	binary.LittleEndian.PutUint16(hdr[2:], uint16(len(t.Name)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write([]byte(t.Name)); err != nil {
		return err
	}
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], uint64(t.Len()))
	_, err := w.Write(cnt[:])
	return err
}

func (t *Trace) writeEventsV1(w io.Writer) error {
	var rec [recordSizeV1]byte
	var werr error
	t.ForEach(func(e Event) {
		if werr != nil {
			return
		}
		if werr = checkEvent(&e); werr != nil {
			werr = fmt.Errorf("trace: %w", werr)
			return
		}
		rec[0] = byte(e.Kind)
		rec[1] = 0
		if e.Write {
			rec[1] = 1
		}
		rec[2] = byte(e.SyncKind)
		rec[3] = 0
		binary.LittleEndian.PutUint32(rec[4:], uint32(e.TID))
		binary.LittleEndian.PutUint32(rec[8:], uint32(e.Other))
		binary.LittleEndian.PutUint32(rec[12:], uint32(e.Site))
		binary.LittleEndian.PutUint32(rec[16:], uint32(e.Sync))
		binary.LittleEndian.PutUint64(rec[20:], uint64(e.Addr))
		_, werr = w.Write(rec[:])
	})
	return werr
}

// deltaState is the per-thread prediction context both v2 coder sides keep
// in lockstep: the thread's previous access address and site.
type deltaState struct {
	lastAddr []uint64
	lastSite []uint32
}

func (ds *deltaState) at(tid int32) (addr *uint64, site *uint32) {
	if int(tid) >= len(ds.lastAddr) {
		na := make([]uint64, int(tid)+1)
		copy(na, ds.lastAddr)
		ds.lastAddr = na
		ns := make([]uint32, int(tid)+1)
		copy(ns, ds.lastSite)
		ds.lastSite = ns
	}
	return &ds.lastAddr[tid], &ds.lastSite[tid]
}

func zigzag(d int64) uint64   { return uint64(d<<1) ^ uint64(d>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func (t *Trace) writeEventsV2(w io.Writer) error {
	var ds deltaState
	var buf [3 * binary.MaxVarintLen64]byte
	var werr error
	t.ForEach(func(e Event) {
		if werr != nil {
			return
		}
		if werr = checkEvent(&e); werr != nil {
			werr = fmt.Errorf("trace: %w", werr)
			return
		}
		b0 := byte(e.Kind) & 7
		if e.Write {
			b0 |= 1 << 3
		}
		b0 |= (byte(e.SyncKind) & 7) << 4
		buf[0] = b0
		n := 1
		n += binary.PutUvarint(buf[n:], uint64(e.TID))
		switch e.Kind {
		case KAccess:
			la, ls := ds.at(e.TID)
			n += binary.PutUvarint(buf[n:], zigzag(int64(uint64(e.Addr))-int64(*la)))
			n += binary.PutUvarint(buf[n:], zigzag(int64(uint32(e.Site))-int64(*ls)))
			*la, *ls = uint64(e.Addr), uint32(e.Site)
		case KAcquire, KRelease:
			n += binary.PutUvarint(buf[n:], uint64(e.Sync))
		case KFork, KJoin:
			n += binary.PutUvarint(buf[n:], uint64(e.Other))
		}
		_, werr = w.Write(buf[:n])
	})
	return werr
}

// countingReader counts bytes drained from the underlying source so the
// stream reader can name the byte offset of a decode failure.
type countingReader struct {
	r io.Reader
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	m, err := cr.r.Read(p)
	cr.n += int64(m)
	return m, err
}

// StreamReader decodes a serialized trace event by event — the server's
// ingestion path, which must not buffer a whole multi-gigabyte trace to
// start detecting. It reads the header eagerly (so Name and Version are
// available immediately) and then yields events until the declared count is
// exhausted.
type StreamReader struct {
	cr        *countingReader
	br        *bufio.Reader
	name      string
	version   int
	total     uint64
	remaining uint64
	ds        deltaState
}

// NewStreamReader reads the trace header from r and returns a reader
// positioned at the first event. Both wire versions are accepted.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	cr := &countingReader{r: r}
	br := bufio.NewReader(cr)
	offset := func() int64 { return cr.n - int64(br.Buffered()) }
	head := make([]byte, 4)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading magic at offset %d: %w", offset(), err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", head)
	}
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading header at offset %d: %w", offset(), err)
	}
	v := int(binary.LittleEndian.Uint16(head[0:]))
	if v != version1 && v != version2 {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	nameLen := binary.LittleEndian.Uint16(head[2:])
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("trace: wire v%d: reading name at offset %d: %w", v, offset(), err)
	}
	var cnt [8]byte
	if _, err := io.ReadFull(br, cnt[:]); err != nil {
		return nil, fmt.Errorf("trace: wire v%d: reading count at offset %d: %w", v, offset(), err)
	}
	n := binary.LittleEndian.Uint64(cnt[:])
	if n > maxEvents {
		return nil, fmt.Errorf("trace: wire v%d: implausible event count %d", v, n)
	}
	return &StreamReader{cr: cr, br: br, name: string(name), version: v, total: n, remaining: n}, nil
}

// Name returns the recorded trace's name.
func (sr *StreamReader) Name() string { return sr.name }

// Version returns the wire version being decoded (1 or 2).
func (sr *StreamReader) Version() int { return sr.version }

// Total returns the event count the header declared.
func (sr *StreamReader) Total() uint64 { return sr.total }

// Offset returns the byte offset of the next undecoded byte — on a decode
// error, where in the stream the malformation sits.
func (sr *StreamReader) Offset() int64 { return sr.cr.n - int64(sr.br.Buffered()) }

// Next returns the next event, or io.EOF once the declared count has been
// delivered. Any other error means a malformed or truncated stream; the
// error names the wire version and the byte offset of the failure.
func (sr *StreamReader) Next() (Event, error) {
	if sr.remaining == 0 {
		return Event{}, io.EOF
	}
	start := sr.Offset()
	var e Event
	var err error
	if sr.version == version1 {
		e, err = sr.nextV1()
	} else {
		e, err = sr.nextV2()
	}
	if err != nil {
		return Event{}, fmt.Errorf("trace: wire v%d: event %d at offset %d: %w",
			sr.version, sr.total-sr.remaining, start, err)
	}
	sr.remaining--
	return e, nil
}

func (sr *StreamReader) nextV1() (Event, error) {
	var rec [recordSizeV1]byte
	if _, err := io.ReadFull(sr.br, rec[:]); err != nil {
		return Event{}, fmt.Errorf("truncated record: %w", noEOF(err))
	}
	if rec[1] > 1 {
		return Event{}, fmt.Errorf("invalid write flag %d", rec[1])
	}
	e := Event{
		Kind:     Kind(rec[0]),
		Write:    rec[1] == 1,
		SyncKind: sim.SyncKind(rec[2]),
		TID:      int32(binary.LittleEndian.Uint32(rec[4:])),
		Other:    int32(binary.LittleEndian.Uint32(rec[8:])),
		Site:     shadow.SiteID(binary.LittleEndian.Uint32(rec[12:])),
		Sync:     detect.SyncID(binary.LittleEndian.Uint32(rec[16:])),
		Addr:     memmodel.Addr(binary.LittleEndian.Uint64(rec[20:])),
	}
	return e, checkEvent(&e)
}

func (sr *StreamReader) nextV2() (Event, error) {
	b0, err := sr.br.ReadByte()
	if err != nil {
		return Event{}, fmt.Errorf("truncated record: %w", noEOF(err))
	}
	e := Event{
		Kind:     Kind(b0 & 7),
		Write:    b0&(1<<3) != 0,
		SyncKind: sim.SyncKind(b0 >> 4),
	}
	tid, err := sr.uvarint()
	if err != nil {
		return Event{}, err
	}
	e.TID = wireTID(tid)
	// Check kind and tid before the tid indexes the delta state; fork/join
	// children are checked once decoded.
	if err := checkEvent(&e); err != nil {
		return Event{}, err
	}
	switch e.Kind {
	case KAccess:
		da, err := sr.uvarint()
		if err != nil {
			return Event{}, err
		}
		dsite, err := sr.uvarint()
		if err != nil {
			return Event{}, err
		}
		la, ls := sr.ds.at(e.TID)
		*la = uint64(int64(*la) + unzigzag(da))
		*ls = uint32(int64(*ls) + unzigzag(dsite))
		e.Addr = memmodel.Addr(*la)
		e.Site = shadow.SiteID(*ls)
	case KAcquire, KRelease:
		s, err := sr.uvarint()
		if err != nil {
			return Event{}, err
		}
		e.Sync = detect.SyncID(s)
	case KFork, KJoin:
		o, err := sr.uvarint()
		if err != nil {
			return Event{}, err
		}
		e.Other = wireTID(o)
		return e, checkEvent(&e)
	}
	return e, nil
}

func (sr *StreamReader) uvarint() (uint64, error) {
	v, err := binary.ReadUvarint(sr.br)
	if err != nil {
		return 0, fmt.Errorf("truncated varint: %w", noEOF(err))
	}
	return v, nil
}

// noEOF converts a bare io.EOF inside a record into ErrUnexpectedEOF: the
// header promised more events, so running dry mid-stream is truncation, not
// a clean end.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ReadFrom deserializes a trace written by WriteTo or WriteToV1.
func ReadFrom(r io.Reader) (*Trace, error) {
	sr, err := NewStreamReader(r)
	if err != nil {
		return nil, err
	}
	t := &Trace{Name: sr.Name()}
	for {
		e, err := sr.Next()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			// Next already names the wire version, event index, and offset.
			return nil, err
		}
		t.Append(e)
	}
}
