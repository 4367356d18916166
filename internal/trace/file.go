package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary trace file format ("ITRC"), version 1.
//
//	header:
//	  magic   [4]byte  "ITRC"
//	  version uint16   little-endian, currently 1
//	  nameLen uint16   little-endian
//	  name    []byte
//	  count   uint64   little-endian record count
//	  foot    uint64   little-endian footprint bytes
//	records (repeated count times, varint-packed):
//	  flags   byte     bit0: kind (1=store); bits 1..7: size-1 when <= 64
//	  addrDelta zigzag varint (delta from previous record's Addr)
//	  gap     uvarint
//	  regs    byte     dst<<4 | src
//
// Address deltas keep sequential traces tiny; zigzag handles backwards jumps.

const (
	fileMagic   = "ITRC"
	fileVersion = 1
)

// ErrBadFormat is returned when a trace file fails to parse.
var ErrBadFormat = errors.New("trace: malformed trace file")

// Writer streams records into an io.Writer in the ITRC format. Call Close to
// flush; the header is written on construction, so the record count must be
// known up front.
type Writer struct {
	w        *bufio.Writer
	prevAddr uint64
	declared uint64
	written  uint64
	buf      [2*binary.MaxVarintLen64 + 2]byte
}

// NewWriter writes the header for a trace named name with exactly count
// records and footprint foot, returning the record writer.
func NewWriter(w io.Writer, name string, count uint64, foot uint64) (*Writer, error) {
	if len(name) > 0xFFFF {
		return nil, fmt.Errorf("trace: name too long (%d bytes)", len(name))
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(fileMagic); err != nil {
		return nil, err
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint16(hdr[0:2], fileVersion)
	binary.LittleEndian.PutUint16(hdr[2:4], uint16(len(name)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	if _, err := bw.WriteString(name); err != nil {
		return nil, err
	}
	var counts [16]byte
	binary.LittleEndian.PutUint64(counts[0:8], count)
	binary.LittleEndian.PutUint64(counts[8:16], foot)
	if _, err := bw.Write(counts[:]); err != nil {
		return nil, err
	}
	return &Writer{w: bw, declared: count}, nil
}

// Write appends one record.
func (tw *Writer) Write(r *Record) error {
	if tw.written >= tw.declared {
		return fmt.Errorf("trace: more records written than declared (%d)", tw.declared)
	}
	flags := byte(0)
	if r.Kind == Store {
		flags |= 1
	}
	size := r.Size
	if size == 0 {
		size = 8
	}
	flags |= (size - 1) << 1
	buf := tw.buf[:0]
	buf = append(buf, flags)
	delta := int64(r.Addr - tw.prevAddr)
	buf = binary.AppendVarint(buf, delta)
	buf = binary.AppendUvarint(buf, uint64(r.Gap))
	buf = append(buf, r.Dst<<4|r.Src&0x0F)
	tw.prevAddr = r.Addr
	tw.written++
	_, err := tw.w.Write(buf)
	return err
}

// Close flushes buffered output and validates the declared record count.
func (tw *Writer) Close() error {
	if tw.written != tw.declared {
		return fmt.Errorf("trace: declared %d records, wrote %d", tw.declared, tw.written)
	}
	return tw.w.Flush()
}

// WriteAll drains gen into w in ITRC format.
func WriteAll(w io.Writer, gen Generator) error {
	gen.Reset()
	tw, err := NewWriter(w, gen.Name(), uint64(gen.Len()), gen.FootprintBytes())
	if err != nil {
		return err
	}
	var r Record
	for gen.Next(&r) {
		if err := tw.Write(&r); err != nil {
			return err
		}
	}
	return tw.Close()
}

// Reader decodes an ITRC stream. It implements Generator only when the
// underlying reader is seekable via ReadAll; for streaming use, call Next
// until it returns false.
type Reader struct {
	r        *bufio.Reader
	name     string
	count    uint64
	foot     uint64
	read     uint64
	prevAddr uint64
}

// NewReader parses the header and positions the reader at the first record.
func NewReader(r io.Reader) (*Reader, error) {
	return newReaderFrom(bufio.NewReaderSize(r, 1<<16))
}

// newReaderFrom parses the header from an existing buffered reader — the
// streaming generator rewinds by seeking the source and re-parsing through
// its reused buffer.
func newReaderFrom(br *bufio.Reader) (*Reader, error) {
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if string(magic) != fileMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, magic)
	}
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if v := binary.LittleEndian.Uint16(hdr[0:2]); v != fileVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, v)
	}
	nameLen := binary.LittleEndian.Uint16(hdr[2:4])
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	var counts [16]byte
	if _, err := io.ReadFull(br, counts[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	return &Reader{
		r:     br,
		name:  string(name),
		count: binary.LittleEndian.Uint64(counts[0:8]),
		foot:  binary.LittleEndian.Uint64(counts[8:16]),
	}, nil
}

// Name returns the trace name from the header.
func (tr *Reader) Name() string { return tr.name }

// Len returns the record count from the header.
func (tr *Reader) Len() int { return int(tr.count) }

// FootprintBytes returns the footprint from the header.
func (tr *Reader) FootprintBytes() uint64 { return tr.foot }

// maxRecordBytes bounds one encoded record: the flags byte, the address
// delta and the gap at up to binary.MaxVarintLen64 bytes each (a
// non-minimal encoding is valid input), and the regs byte.
const maxRecordBytes = 1 + 2*binary.MaxVarintLen64 + 1

// Next decodes the next record. It returns false at a clean end of trace and
// a non-nil error for truncated or corrupt input. The record is decoded in
// place from the buffered reader's window and then consumed; near the end
// of input the window is shorter, and a record that does not fit in it is
// truncated.
func (tr *Reader) Next(rec *Record) (bool, error) {
	if tr.read >= tr.count {
		return false, nil
	}
	buf, err := tr.r.Peek(maxRecordBytes)
	if len(buf) == 0 {
		return false, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	delta, n := binary.Varint(buf[1:])
	if n <= 0 {
		return false, decodeErr("address delta", n, err)
	}
	i := 1 + n
	gap, n := binary.Uvarint(buf[i:])
	if n <= 0 {
		return false, decodeErr("gap", n, err)
	}
	i += n
	if gap > 0xFFFFFFFF {
		return false, fmt.Errorf("%w: gap overflow %d", ErrBadFormat, gap)
	}
	if i == len(buf) {
		return false, decodeErr("regs", 0, err)
	}
	flags, regs := buf[0], buf[i]
	tr.r.Discard(i + 1) // cannot fail: Peek buffered these bytes
	tr.prevAddr += uint64(delta)
	rec.Addr = tr.prevAddr
	rec.Gap = uint32(gap)
	rec.Size = (flags >> 1) + 1
	if flags&1 != 0 {
		rec.Kind = Store
	} else {
		rec.Kind = Load
	}
	rec.Dst = regs >> 4
	rec.Src = regs & 0x0F
	tr.read++
	return true, nil
}

// decodeErr describes a field that failed to decode: n < 0 is a varint
// overflow, otherwise the input ended inside the record (readErr says why
// the window was short).
func decodeErr(field string, n int, readErr error) error {
	if n < 0 {
		return fmt.Errorf("%w: %s varint overflow", ErrBadFormat, field)
	}
	if readErr == nil || readErr == io.EOF {
		readErr = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("%w: %s: %v", ErrBadFormat, field, readErr)
}

// ReadAll decodes an entire ITRC stream into a SliceGenerator.
func ReadAll(r io.Reader) (*SliceGenerator, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	// The header's count is untrusted input: cap the initial allocation
	// and let append grow it if the trace really is that long.
	hint := tr.Len()
	if hint < 0 || hint > 1<<20 {
		hint = 1 << 20
	}
	recs := make([]Record, 0, hint)
	var rec Record
	for {
		ok, err := tr.Next(&rec)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		recs = append(recs, rec)
	}
	g := NewSliceGenerator(tr.Name(), recs)
	g.SetFootprint(tr.FootprintBytes())
	return g, nil
}
