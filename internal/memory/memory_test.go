package memory

import (
	"strings"
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
	k.Spawn("a", func(p *pearl.Process) { d.Read(p, 0, 8); t1 = k.Now() })
	k.Spawn("b", func(p *pearl.Process) { d.Read(p, 64, 8); t2 = k.Now() })
	k.Run()
	if t1 != 11 || t2 != 22 {
		t.Fatalf("t1=%d t2=%d, want 11/22 (serialised)", t1, t2)
	}
	if d.reads.Value() != 2 || d.bytes.Value() != 16 {
		t.Fatalf("reads=%d bytes=%d", d.reads.Value(), d.bytes.Value())
	}
}

func TestDualPorted(t *testing.T) {
	k := pearl.NewKernel()
	d := New(k, "m", Config{ReadLatency: 10, WriteLatency: 10, BytesPerCycle: 8, Ports: 2}, nil, nil)
	var t1, t2 pearl.Time
	k.Spawn("a", func(p *pearl.Process) { d.Read(p, 0, 8); t1 = k.Now() })
	k.Spawn("b", func(p *pearl.Process) { d.access(p, true, 8); t2 = k.Now() })
	k.Run()
	if t1 != 11 || t2 != 11 {
		t.Fatalf("t1=%d t2=%d, want concurrent 11/11", t1, t2)
	}
}

// Validate writes the default of every zero field, so the all-zero
// configuration runs as a one-ported memory moving eight bytes per cycle,
// and refuses every negative field by name.
func TestValidateDefaults(t *testing.T) {
	var c Config
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if want := (Config{BytesPerCycle: 8, Ports: 1}); c != want {
		t.Fatalf("validated zero config = %+v, want %+v", c, want)
	}
	k := pearl.NewKernel()
	d := New(k, "m", c, nil, nil)
	k.Spawn("a", func(p *pearl.Process) { d.Read(p, 0, 64) })
	k.Run()
	if d.reads.Value() != 1 || k.Now() != 8 {
		t.Fatalf("%d reads done at %d, want 1 at 8", d.reads.Value(), k.Now())
	}
	for field, bad := range map[string]Config{
		"ReadLatency":   {ReadLatency: -1},
		"WriteLatency":  {WriteLatency: -1},
		"BytesPerCycle": {BytesPerCycle: -1},
		"Ports":         {Ports: -1},
	} {
		if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("negative %s: error %v, want one naming it", field, err)
		}
	}
}

func TestStatsSet(t *testing.T) {
	k := pearl.NewKernel()
	d := New(k, "m", Config{ReadLatency: 5, WriteLatency: 5, BytesPerCycle: 8, Ports: 1}, nil, nil)
	k.Spawn("a", func(p *pearl.Process) { d.Read(p, 0, 8) })
	k.Run()
	s := d.Stats()
	if v, ok := s.Get("reads"); !ok || v != 1 {
		t.Fatalf("stats reads = %v", v)
	}
}
