package ops

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary trace format: a magic header followed by one variable-length record
// per operation. Each record starts with the kind byte; the remaining fields
// depend on the kind and use unsigned varints (zig-zag for signed values), so
// common traces are 2–6 bytes per operation.

var magic = [4]byte{'M', 'M', 'T', '1'} // Mermaid trace v1

// Writer encodes operations to a binary trace stream.
type Writer struct {
	w       *bufio.Writer
	wrote   bool
	scratch [binary.MaxVarintLen64]byte
}

// NewWriter creates a trace writer on w. The header is emitted lazily on the
// first Write so that creating a writer is cheap.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

func (tw *Writer) uvarint(v uint64) error {
	n := binary.PutUvarint(tw.scratch[:], v)
	_, err := tw.w.Write(tw.scratch[:n])
	return err
}

func (tw *Writer) varint(v int64) error {
	n := binary.PutVarint(tw.scratch[:], v)
	_, err := tw.w.Write(tw.scratch[:n])
	return err
}

// Write appends one operation to the stream.
func (tw *Writer) Write(o Op) error {
	if err := o.Validate(); err != nil {
		return err
	}
	if !tw.wrote {
		if _, err := tw.w.Write(magic[:]); err != nil {
			return err
		}
		tw.wrote = true
	}
	if err := tw.w.WriteByte(byte(o.Kind)); err != nil {
		return err
	}
	var err error
	switch o.Kind {
	case Load, Store:
		if err = tw.w.WriteByte(byte(o.Mem)); err == nil {
			err = tw.uvarint(o.Addr)
		}
	case LoadConst, Add, Sub, Mul, Div:
		err = tw.w.WriteByte(byte(o.Data))
	case IFetch, Branch, Call, Ret:
		err = tw.uvarint(o.Addr)
	case Send, ASend:
		if err = tw.uvarint(uint64(o.Size)); err == nil {
			if err = tw.varint(int64(o.Peer)); err == nil {
				err = tw.uvarint(uint64(o.Tag))
			}
		}
	case Recv:
		if err = tw.varint(int64(o.Peer)); err == nil {
			err = tw.uvarint(uint64(o.Tag))
		}
	case ARecv:
		if err = tw.varint(int64(o.Peer)); err == nil {
			if err = tw.uvarint(uint64(o.Tag)); err == nil {
				err = tw.uvarint(o.Addr) // arecv handle
			}
		}
	case Compute:
		err = tw.varint(o.Dur)
	case WaitRecv:
		err = tw.uvarint(o.Addr)
	}
	if err != nil {
		return err
	}
	return nil
}

// Flush writes any buffered data to the underlying writer.
func (tw *Writer) Flush() error { return tw.w.Flush() }

// Reader decodes operations from a binary trace stream.
type Reader struct {
	r      *bufio.Reader
	header bool
}

// NewReader creates a trace reader on r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// ErrBadTrace is returned when the stream is not a valid binary trace.
var ErrBadTrace = errors.New("ops: malformed binary trace")

// Read decodes the next operation. It returns io.EOF cleanly at end of
// stream, and io.ErrUnexpectedEOF or ErrBadTrace for truncated or corrupt
// input.
func (tr *Reader) Read() (Op, error) {
	if !tr.header {
		var hdr [4]byte
		if _, err := io.ReadFull(tr.r, hdr[:]); err != nil {
			if err == io.ErrUnexpectedEOF {
				return Op{}, ErrBadTrace
			}
			return Op{}, err
		}
		if hdr != magic {
			return Op{}, fmt.Errorf("%w: bad magic %q", ErrBadTrace, hdr)
		}
		tr.header = true
	}
	kb, err := tr.r.ReadByte()
	if err != nil {
		return Op{}, err // io.EOF: clean end
	}
	o := Op{Kind: Kind(kb)}
	fail := func(err error) (Op, error) {
		if err == io.EOF {
			return Op{}, io.ErrUnexpectedEOF
		}
		return Op{}, err
	}
	switch o.Kind {
	case Load, Store:
		mb, err := tr.r.ReadByte()
		if err != nil {
			return fail(err)
		}
		o.Mem = MemType(mb)
		if o.Addr, err = binary.ReadUvarint(tr.r); err != nil {
			return fail(err)
		}
	case LoadConst, Add, Sub, Mul, Div:
		db, err := tr.r.ReadByte()
		if err != nil {
			return fail(err)
		}
		o.Data = DataType(db)
	case IFetch, Branch, Call, Ret:
		if o.Addr, err = binary.ReadUvarint(tr.r); err != nil {
			return fail(err)
		}
	case Send, ASend:
		size, err := binary.ReadUvarint(tr.r)
		if err != nil {
			return fail(err)
		}
		o.Size = uint32(size)
		peer, err := binary.ReadVarint(tr.r)
		if err != nil {
			return fail(err)
		}
		o.Peer = int32(peer)
		tag, err := binary.ReadUvarint(tr.r)
		if err != nil {
			return fail(err)
		}
		o.Tag = uint32(tag)
	case Recv, ARecv:
		peer, err := binary.ReadVarint(tr.r)
		if err != nil {
			return fail(err)
		}
		o.Peer = int32(peer)
		tag, err := binary.ReadUvarint(tr.r)
		if err != nil {
			return fail(err)
		}
		o.Tag = uint32(tag)
		if o.Kind == ARecv {
			if o.Addr, err = binary.ReadUvarint(tr.r); err != nil {
				return fail(err)
			}
		}
	case Compute:
		if o.Dur, err = binary.ReadVarint(tr.r); err != nil {
			return fail(err)
		}
	case WaitRecv:
		if o.Addr, err = binary.ReadUvarint(tr.r); err != nil {
			return fail(err)
		}
	default:
		return Op{}, fmt.Errorf("%w: unknown kind byte %d", ErrBadTrace, kb)
	}
	if err := o.Validate(); err != nil {
		return Op{}, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	return o, nil
}

// ReadAll decodes an entire binary trace into a slice.
func ReadAll(r io.Reader) ([]Op, error) {
	tr := NewReader(r)
	var out []Op
	for {
		o, err := tr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, o)
	}
}

// WriteAll encodes a slice of operations as a binary trace.
func WriteAll(w io.Writer, trace []Op) error {
	tw := NewWriter(w)
	for _, o := range trace {
		if err := tw.Write(o); err != nil {
			return err
		}
	}
	return tw.Flush()
}
