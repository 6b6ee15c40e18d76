package ops

import (
	"bytes"
	"testing"
)

func TestKindCategories(t *testing.T) {
	comp := []Kind{Load, Store, LoadConst, Add, Sub, Mul, Div, IFetch, Branch, Call, Ret}
	comm := []Kind{Send, Recv, ASend, ARecv, Compute}
	for _, k := range comp {
		if !k.IsComputational() || k.IsCommunication() {
			t.Errorf("%s misclassified", k)
		}
	}
	for _, k := range comm {
		if k.IsComputational() || !k.IsCommunication() {
			t.Errorf("%s misclassified", k)
		}
	}
}

func TestGlobalEvents(t *testing.T) {
	global := map[Kind]bool{Send: true, Recv: true, ASend: true, ARecv: true, WaitRecv: true}
	for k := Load; k < numKinds; k++ {
		if k.IsGlobalEvent() != global[k] {
			t.Errorf("%s: IsGlobalEvent = %v, want %v", k, k.IsGlobalEvent(), global[k])
		}
	}
}

func TestSubCategories(t *testing.T) {
	if !Load.IsMemoryAccess() || !Store.IsMemoryAccess() || IFetch.IsMemoryAccess() {
		t.Error("memory access classification wrong")
	}
	for _, k := range []Kind{Add, Sub, Mul, Div} {
		if !k.IsArithmetic() {
			t.Errorf("%s not arithmetic", k)
		}
	}
	for _, k := range []Kind{IFetch, Branch, Call, Ret} {
		if !k.IsControl() {
			t.Errorf("%s not control", k)
		}
	}
	if Load.IsArithmetic() || Add.IsControl() {
		t.Error("cross-category leak")
	}
}

func TestMemTypeSizes(t *testing.T) {
	want := map[MemType]uint64{
		MemByte: 1, MemHalf: 2, MemWord: 4, MemDouble: 8, MemFloat: 4, MemFloat8: 8,
	}
	for m, sz := range want {
		if m.Size() != sz {
			t.Errorf("%s.Size() = %d, want %d", m, m.Size(), sz)
		}
	}
}

func TestValidate(t *testing.T) {
	valid := TableOne()
	for _, o := range valid {
		if err := o.Validate(); err != nil {
			t.Errorf("%s: unexpected error %v", o, err)
		}
	}
	bad := []Op{
		{Kind: invalid},
		{Kind: Load},                              // no mem-type
		{Kind: Add},                               // no data type
		{Kind: Send, Size: 0, Peer: 1},            // zero size
		{Kind: Send, Size: 8, Peer: -2},           // bad destination
		{Kind: Recv, Peer: -5},                    // bad source (not AnyPeer)
		{Kind: Compute, Dur: -1},                  // negative duration
		{Kind: Kind(200)},                         // unknown kind
		{Kind: Load, Mem: MemType(99), Addr: 0x0}, // unknown mem type
	}
	for _, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("%+v: expected validation error", o)
		}
	}
}

func TestRecvAnyValid(t *testing.T) {
	if err := NewRecv(AnyPeer, 0).Validate(); err != nil {
		t.Fatalf("recv-any should validate: %v", err)
	}
}

func TestConstructors(t *testing.T) {
	o := NewLoad(MemWord, 0x1000)
	if o.Kind != Load || o.Mem != MemWord || o.Addr != 0x1000 {
		t.Errorf("NewLoad = %+v", o)
	}
	o = NewSend(256, 3, 7)
	if o.Kind != Send || o.Size != 256 || o.Peer != 3 || o.Tag != 7 {
		t.Errorf("NewSend = %+v", o)
	}
	o = NewCompute(1234)
	if o.Kind != Compute || o.Dur != 1234 {
		t.Errorf("NewCompute = %+v", o)
	}
}

func TestNewArithRejectsNonArith(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewArith(Load, TypeInt)
}

func TestOpStringFormats(t *testing.T) {
	cases := map[string]Op{
		"load w 0x1f00":        NewLoad(MemWord, 0x1f00),
		"store g 0x20":         NewStore(MemFloat8, 0x20),
		"add i":                NewArith(Add, TypeInt),
		"div d":                NewArith(Div, TypeDouble),
		"ifetch 0x400":         NewIFetch(0x400),
		"send 1024 -> 3 tag 0": NewSend(1024, 3, 0),
		"recv <- any tag 2":    NewRecv(AnyPeer, 2),
		"compute 500":          NewCompute(500),
	}
	for want, o := range cases {
		if got := o.String(); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
}

// TableOne returns one well-formed instance of every operation in Table 1 of
// the paper; shared by tests and the E1 benchmark.
func TableOne() []Op {
	return []Op{
		NewLoad(MemWord, 0x1000),
		NewStore(MemFloat8, 0x2000),
		NewLoadConst(TypeInt),
		NewLoadConst(TypeFloat),
		NewArith(Add, TypeInt),
		NewArith(Sub, TypeLong),
		NewArith(Mul, TypeFloat),
		NewArith(Div, TypeDouble),
		NewIFetch(0x400000),
		NewBranch(0x400010),
		NewCall(0x401000),
		NewRet(0x400020),
		NewSend(1024, 1, 0),
		NewRecv(0, 0),
		NewASend(64, 2, 1),
		NewARecv(AnyPeer, 1),
		NewCompute(5000),
	}
}

func TestTableOneCoversAllKinds(t *testing.T) {
	seen := make(map[Kind]bool)
	for _, o := range TableOne() {
		seen[o.Kind] = true
	}
	// WaitRecv is a pseudo-operation, deliberately not part of Table 1.
	for k := Load; k <= Compute; k++ {
		if !seen[k] {
			t.Errorf("Table 1 fixture missing kind %s", k)
		}
	}
	if seen[WaitRecv] {
		t.Error("WaitRecv must not be in the Table 1 fixture")
	}
}

func TestWaitRecvRoundTrips(t *testing.T) {
	o := NewWaitRecv(42)
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, []Op{o}); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAll(&buf)
	if err != nil || len(back) != 1 || back[0] != o {
		t.Fatalf("binary round trip: %+v, %v", back, err)
	}
}
