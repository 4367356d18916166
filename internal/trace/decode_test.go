package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
)

// refNext is the byte-at-a-time ITRC record decoder Reader.Next replaced
// (one ReadByte or ReadVarint per field), kept as the reference that the
// in-place decoder must match record for record.
func refNext(r *bufio.Reader, prevAddr *uint64, rec *Record) error {
	flags, err := r.ReadByte()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	delta, err := binary.ReadVarint(r)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	gap, err := binary.ReadUvarint(r)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if gap > 0xFFFFFFFF {
		return fmt.Errorf("%w: gap overflow %d", ErrBadFormat, gap)
	}
	regs, err := r.ReadByte()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	*prevAddr += uint64(delta)
	rec.Addr = *prevAddr
	rec.Gap = uint32(gap)
	rec.Size = (flags >> 1) + 1
	if flags&1 != 0 {
		rec.Kind = Store
	} else {
		rec.Kind = Load
	}
	rec.Dst = regs >> 4
	rec.Src = regs & 0x0F
	return nil
}

// itrcHeader returns a valid ITRC header declaring count records: a Writer
// with nothing written yet flushes exactly its header.
func itrcHeader(count uint64) []byte {
	var out bytes.Buffer
	w, err := NewWriter(&out, "ref", count, 1<<20)
	if err != nil {
		panic(err)
	}
	if err := w.w.Flush(); err != nil {
		panic(err)
	}
	return out.Bytes()
}

// checkDecodeMatchesReference decodes body behind a header declaring count
// records with both decoders and fails on the first difference in a
// record or in the ok/error outcome.
func checkDecodeMatchesReference(t *testing.T, count uint16, body []byte) {
	t.Helper()
	data := append(itrcHeader(uint64(count)), body...)
	tr, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("valid header rejected: %v", err)
	}
	ref := bufio.NewReader(bytes.NewReader(data[len(data)-len(body):]))
	var prev uint64
	for i := 0; ; i++ {
		var got, want Record
		ok, gerr := tr.Next(&got)
		var werr error
		wok := i < int(count)
		if wok {
			if werr = refNext(ref, &prev, &want); werr != nil {
				wok = false
			}
		}
		if ok != wok || (gerr != nil) != (werr != nil) {
			t.Fatalf("record %d: in place (ok=%v, err=%v), reference (ok=%v, err=%v)", i, ok, gerr, wok, werr)
		}
		if gerr != nil && !errors.Is(gerr, ErrBadFormat) {
			t.Fatalf("record %d: error %v does not wrap ErrBadFormat", i, gerr)
		}
		if !ok {
			return
		}
		if got != want {
			t.Fatalf("record %d: in place %+v, reference %+v", i, got, want)
		}
	}
}

// FuzzDecodeMatchesReference: behind a valid header, any body decodes to
// the same records with the same ok/error outcome in place as through the
// byte-at-a-time reference, including non-minimal varints (a gap may take
// the full binary.MaxVarintLen64 bytes), overflows and truncation anywhere.
func FuzzDecodeMatchesReference(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, NewSliceGenerator("seed", benchRecords(40))); err != nil {
		f.Fatal(err)
	}
	body := buf.Bytes()[len(itrcHeader(40)):]
	f.Add(uint16(40), body)
	f.Add(uint16(41), body)
	f.Add(uint16(40), body[:len(body)-1])
	// Ten-byte gap, non-minimal: 0x80 ×9 then 0x00 (= 0).
	f.Add(uint16(1), []byte{0x0e, 0x02, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00, 0x12})
	// Ten-byte address delta and ten-byte gap: the longest valid record.
	f.Add(uint16(1), []byte{0x01, 0x81, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01,
		0xff, 0xff, 0xff, 0xff, 0x8f, 0x80, 0x80, 0x80, 0x80, 0x00, 0x34})
	// Delta overflow (eleven continuation bytes) and gap overflow.
	f.Add(uint16(1), bytes.Repeat([]byte{0xff}, 24))
	f.Add(uint16(1), []byte{0x00, 0x00, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02, 0x00})
	f.Add(uint16(1), []byte{0x00, 0x00, 0x80, 0x80, 0x80, 0x80, 0x10, 0x00})
	f.Add(uint16(3), []byte{})
	f.Fuzz(checkDecodeMatchesReference)
}

// TestDecodeMatchesReferenceAtEveryCut truncates a valid body at every
// length, so each field of each record ends the input at least once.
func TestDecodeMatchesReferenceAtEveryCut(t *testing.T) {
	recs := benchRecords(12)
	recs[3].Addr = 1 << 62 // a long address delta both ways
	recs[5].Gap = 0xFFFFFFFF
	var buf bytes.Buffer
	if err := WriteAll(&buf, NewSliceGenerator("cut", recs)); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()[len(itrcHeader(uint64(len(recs)))):]
	for cut := 0; cut <= len(body); cut++ {
		checkDecodeMatchesReference(t, uint16(len(recs)), body[:cut])
	}
}
