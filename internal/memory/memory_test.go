package memory

import (
	"testing"

	"mermaid/internal/pearl"
)

func TestAccessTime(t *testing.T) {
	k := pearl.NewKernel()
	d := New(k, "m", Config{ReadLatency: 5, WriteLatency: 7, BytesPerCycle: 8, Ports: 1}, nil, nil)
	if got := d.accessTime(false, 64); got != 13 {
		t.Fatalf("read 64B = %d, want 13", got)
	}
	if got := d.accessTime(true, 1); got != 8 {
		t.Fatalf("write 1B = %d, want 8 (7 + ceil(1/8))", got)
	}
}

func TestPortContention(t *testing.T) {
	k := pearl.NewKernel()
	d := New(k, "m", Config{ReadLatency: 10, WriteLatency: 10, BytesPerCycle: 8, Ports: 1}, nil, nil)
	var t1, t2 pearl.Time
	k.Spawn("a", func(p *pearl.Process) { d.Read(p, 0, 8); t1 = p.Now() })
	k.Spawn("b", func(p *pearl.Process) { d.Read(p, 64, 8); t2 = p.Now() })
	k.Run()
	if t1 != 11 || t2 != 22 {
		t.Fatalf("t1=%d t2=%d, want 11/22 (serialised)", t1, t2)
	}
	if d.Reads() != 2 || d.Bytes() != 16 {
		t.Fatalf("reads=%d bytes=%d", d.Reads(), d.Bytes())
	}
}

func TestDualPorted(t *testing.T) {
	k := pearl.NewKernel()
	d := New(k, "m", Config{ReadLatency: 10, WriteLatency: 10, BytesPerCycle: 8, Ports: 2}, nil, nil)
	var t1, t2 pearl.Time
	k.Spawn("a", func(p *pearl.Process) { d.Read(p, 0, 8); t1 = p.Now() })
	k.Spawn("b", func(p *pearl.Process) { d.Write(p, 64, 8); t2 = p.Now() })
	k.Run()
	if t1 != 11 || t2 != 11 {
		t.Fatalf("t1=%d t2=%d, want concurrent 11/11", t1, t2)
	}
}

func TestSanitizeDefaults(t *testing.T) {
	k := pearl.NewKernel()
	d := New(k, "m", Config{}, nil, nil) // all zero: must not divide by zero
	k.Spawn("a", func(p *pearl.Process) { d.Read(p, 0, 64) })
	k.Run()
	if d.Reads() != 1 {
		t.Fatal("read did not complete")
	}
}

func TestStatsSet(t *testing.T) {
	k := pearl.NewKernel()
	d := New(k, "m", DefaultConfig(), nil, nil)
	k.Spawn("a", func(p *pearl.Process) { d.Read(p, 0, 8) })
	k.Run()
	s := d.Stats()
	if v, ok := s.Get("reads"); !ok || v != 1 {
		t.Fatalf("stats reads = %v", v)
	}
}
