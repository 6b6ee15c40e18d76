package bus

import (
	"strings"
	"testing"

	"mermaid/internal/pearl"
)

func TestTransferTime(t *testing.T) {
	k := pearl.NewKernel()
	b := New(k, "bus", Config{Width: 8, ArbitrationDelay: 1}, nil, nil)
	if got := b.transferTime(64); got != 8 {
		t.Fatalf("64B = %d cycles, want 8", got)
	}
	if got := b.transferTime(1); got != 1 {
		t.Fatalf("1B = %d cycles, want 1 (rounded up)", got)
	}
}

func TestArbitrationSerialises(t *testing.T) {
	k := pearl.NewKernel()
	b := New(k, "bus", Config{Width: 8, ArbitrationDelay: 1}, nil, nil)
	var t1, t2 pearl.Time
	k.Spawn("a", func(p *pearl.Process) { b.Transact(p, 0, 64, nil); t1 = k.Now() })
	k.Spawn("b", func(p *pearl.Process) { b.Transact(p, 0, 64, nil); t2 = k.Now() })
	k.Run()
	// Each transaction: 1 arb + 8 transfer = 9.
	if t1 != 9 || t2 != 18 {
		t.Fatalf("t1=%d t2=%d, want 9/18", t1, t2)
	}
	if b.transactions.Value() != 2 || b.bytes.Value() != 128 {
		t.Fatalf("txns=%d bytes=%d", b.transactions.Value(), b.bytes.Value())
	}
}

func TestTransactBodyRunsWhileHolding(t *testing.T) {
	k := pearl.NewKernel()
	b := New(k, "bus", Config{Width: 8, ArbitrationDelay: 0}, nil, nil)
	var bodyRan bool
	k.Spawn("a", func(p *pearl.Process) {
		b.Transact(p, 0, 8, func() {
			bodyRan = true
		})
	})
	k.Run()
	if !bodyRan {
		t.Fatal("body did not run")
	}
}

// Validate writes the default of every zero field, so the all-zero
// configuration runs as a 64-byte-interleaved bus eight bytes wide, and
// refuses every negative field by name.
func TestValidateDefaults(t *testing.T) {
	var c Config
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if want := (Config{Kind: KindBus, Width: 8, Banks: 4, InterleaveBytes: 64}); c != want {
		t.Fatalf("validated zero config = %+v, want %+v", c, want)
	}
	if b := New(pearl.NewKernel(), "bus", c, nil, nil); b.transferTime(8) != 1 {
		t.Fatalf("default width transfer = %d", b.transferTime(8))
	}
	for field, bad := range map[string]Config{
		"Width":            {Width: -1},
		"Banks":            {Banks: -1},
		"InterleaveBytes":  {InterleaveBytes: -1},
		"ArbitrationDelay": {ArbitrationDelay: -1},
	} {
		if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("negative %s: error %v, want one naming it", field, err)
		}
	}
}

func TestStats(t *testing.T) {
	k := pearl.NewKernel()
	b := New(k, "bus", Config{Kind: KindBus, Width: 8, ArbitrationDelay: 1}, nil, nil)
	k.Spawn("a", func(p *pearl.Process) { b.Transact(p, 0, 16, nil) })
	k.Run()
	s := b.Stats()
	if v, ok := s.Get("transactions"); !ok || v != 1 {
		t.Fatalf("transactions = %v", v)
	}
}

func TestCrossbarParallelism(t *testing.T) {
	k := pearl.NewKernel()
	b := New(k, "xbar", Config{Kind: KindCrossbar, Width: 8, ArbitrationDelay: 1, Banks: 4, InterleaveBytes: 64}, nil, nil)
	var t1, t2 pearl.Time
	// Different banks: concurrent.
	k.Spawn("a", func(p *pearl.Process) { b.Transact(p, 0, 64, nil); t1 = k.Now() })
	k.Spawn("b", func(p *pearl.Process) { b.Transact(p, 64, 64, nil); t2 = k.Now() })
	k.Run()
	if t1 != 9 || t2 != 9 {
		t.Fatalf("t1=%d t2=%d, want concurrent 9/9", t1, t2)
	}
}

func TestCrossbarSameBankSerialises(t *testing.T) {
	k := pearl.NewKernel()
	b := New(k, "xbar", Config{Kind: KindCrossbar, Width: 8, ArbitrationDelay: 1, Banks: 4, InterleaveBytes: 64}, nil, nil)
	var t1, t2 pearl.Time
	// Same bank (64-byte interleave, banks 4: addresses 0 and 256 share bank 0).
	k.Spawn("a", func(p *pearl.Process) { b.Transact(p, 0, 64, nil); t1 = k.Now() })
	k.Spawn("b", func(p *pearl.Process) { b.Transact(p, 256, 64, nil); t2 = k.Now() })
	k.Run()
	if t1 != 9 || t2 != 18 {
		t.Fatalf("t1=%d t2=%d, want serialised 9/18", t1, t2)
	}
}

// The bus is one arbitration domain, which every agent observes (the
// broadcast medium snoopy coherence needs); a crossbar has one per bank.
func TestBroadcast(t *testing.T) {
	k := pearl.NewKernel()
	if b := New(k, "b", Config{Kind: KindBus, Width: 8, ArbitrationDelay: 1}, nil, nil); len(b.chans) != 1 {
		t.Fatalf("bus has %d channels, want 1: a broadcast medium", len(b.chans))
	}
	if x := New(k, "x", Config{Kind: KindCrossbar, Banks: 2}, nil, nil); len(x.chans) != 2 {
		t.Fatalf("crossbar has %d channels, want one per bank", len(x.chans))
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{Kind: KindCrossbar}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Config{Kind: "warp-drive"}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error")
	}
}
