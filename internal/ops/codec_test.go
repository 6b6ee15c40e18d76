package ops

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func TestBinaryRoundTrip(t *testing.T) {
	trace := TableOne()
	var buf bytes.Buffer
	if err := WriteAll(&buf, trace); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(trace) {
		t.Fatalf("got %d ops, want %d", len(back), len(trace))
	}
	for i := range trace {
		if back[i] != trace[i] {
			t.Fatalf("op %d: %+v != %+v", i, back[i], trace[i])
		}
	}
}

func TestBinaryCompactness(t *testing.T) {
	// A typical computational trace should be only a few bytes per op.
	var trace []Op
	for i := 0; i < 1000; i++ {
		trace = append(trace, NewIFetch(uint64(0x400000+4*i)), NewLoad(MemWord, uint64(0x10000+8*i)), NewArith(Add, TypeInt))
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, trace); err != nil {
		t.Fatal(err)
	}
	perOp := float64(buf.Len()) / float64(len(trace))
	if perOp > 6 {
		t.Fatalf("%.1f bytes/op, want <= 6", perOp)
	}
}

func TestReaderBadMagic(t *testing.T) {
	r := NewReader(strings.NewReader("NOPE----"))
	if _, err := r.Read(); err == nil {
		t.Fatal("expected bad-magic error")
	}
}

func TestReaderTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, []Op{NewSend(1<<20, 5, 9)}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Chop in the middle of the record.
	r := NewReader(bytes.NewReader(full[:len(full)-2]))
	_, err := r.Read()
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want unexpected EOF", err)
	}
}

func TestReaderEmptyStream(t *testing.T) {
	r := NewReader(strings.NewReader(""))
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

func TestReaderUnknownKind(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(magic[:])
	buf.WriteByte(250)
	r := NewReader(&buf)
	if _, err := r.Read(); err == nil {
		t.Fatal("expected unknown-kind error")
	}
}

func TestWriterRejectsInvalid(t *testing.T) {
	w := NewWriter(io.Discard)
	if err := w.Write(Op{Kind: Load}); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestCounts(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, o := range TableOne() {
		if err := w.Write(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	n := 0
	for {
		if _, err := r.Read(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != len(TableOne()) {
		t.Fatalf("read %d operations, want %d", n, len(TableOne()))
	}
}

func TestBinaryCarriesARecvHandleAndWaitRecv(t *testing.T) {
	arecv := NewARecv(3, 7)
	arecv.Addr = 99 // handle
	trace := []Op{arecv, NewWaitRecv(99)}
	var buf bytes.Buffer
	if err := WriteAll(&buf, trace); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back[0] != trace[0] || back[1] != trace[1] {
		t.Fatalf("round trip lost handle: %+v", back)
	}
}

// Property: any structurally valid operation survives a binary round trip.
func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(kindSel uint8, mem, data uint8, addr uint64, size uint32, peer int32, tag uint32, dur int64) bool {
		kinds := []Kind{Load, Store, LoadConst, Add, Sub, Mul, Div, IFetch, Branch, Call, Ret, Send, Recv, ASend, ARecv, Compute}
		k := kinds[int(kindSel)%len(kinds)]
		o := Op{Kind: k}
		switch {
		case k == Load || k == Store:
			o.Mem = MemType(mem%uint8(numMemTypes-1)) + 1
			o.Addr = addr
		case k.IsArithmetic() || k == LoadConst:
			o.Data = DataType(data%uint8(numDataTypes-1)) + 1
		case k.IsControl():
			o.Addr = addr
		case k == Send || k == ASend:
			o.Size = size | 1 // non-zero
			o.Peer = int32(uint32(peer) % (1 << 20))
			o.Tag = tag
		case k == Recv || k == ARecv:
			if peer%2 == 0 {
				o.Peer = AnyPeer
			} else {
				o.Peer = int32(uint32(peer) % (1 << 20))
			}
			o.Tag = tag
		case k == Compute:
			o.Dur = dur & (1<<40 - 1) // non-negative
		}
		if err := o.Validate(); err != nil {
			return true // skip: not a valid op under this draw
		}
		var buf bytes.Buffer
		if err := WriteAll(&buf, []Op{o}); err != nil {
			return false
		}
		back, err := ReadAll(&buf)
		return err == nil && len(back) == 1 && back[0] == o
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// FuzzBinaryTrace: decoding arbitrary bytes never panics, and every
// operation decoded before the first error re-encodes and decodes back to
// itself.
func FuzzBinaryTrace(f *testing.F) {
	var table bytes.Buffer
	if err := WriteAll(&table, TableOne()); err != nil {
		f.Fatal(err)
	}
	f.Add(table.Bytes())
	f.Add(magic[:])
	f.Add(table.Bytes()[:table.Len()-1]) // cut inside the last record
	f.Fuzz(func(t *testing.T, data []byte) {
		got, _ := ReadAll(bytes.NewReader(data))
		var buf bytes.Buffer
		if err := WriteAll(&buf, got); err != nil {
			t.Fatalf("re-encoding %d decoded ops: %v", len(got), err)
		}
		back, err := ReadAll(&buf)
		if err != nil {
			t.Fatalf("decoding the re-encoded ops: %v", err)
		}
		if len(back) != len(got) {
			t.Fatalf("%d ops re-decoded, want %d", len(back), len(got))
		}
		for i := range got {
			if back[i] != got[i] {
				t.Fatalf("op %d: %+v re-decoded as %+v", i, got[i], back[i])
			}
		}
	})
}
