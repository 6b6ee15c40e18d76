package dsm_test

import (
	"testing"

	"mermaid/internal/annotate"
	"mermaid/internal/dsm"
	"mermaid/internal/machine"
	"mermaid/internal/ops"
	"mermaid/internal/trace"
)

func cluster(t *testing.T) *machine.Machine {
	t.Helper()
	m, err := machine.New(machine.DSMCluster(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// sharedProg builds an instrumented program whose threads access the shared
// segment; body receives the unit and the thread.
func sharedProg(threads int, body func(u *annotate.Unit, th *trace.Thread, rank int)) *trace.Program {
	return &trace.Program{
		Threads: threads,
		Body: func(th *trace.Thread) {
			u := annotate.New(th, annotate.GenericTarget())
			u.Enter("main")
			defer u.Leave()
			body(u, th, th.ID())
		},
	}
}

func TestConfigValidate(t *testing.T) {
	good := dsm.DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []dsm.Config{
		{PageSize: 3000, Size: 3000, Base: 0},
		{PageSize: 4096, Size: 5000, Base: 0},
		{PageSize: 4096, Size: 8192, Base: 100},
		{PageSize: 4096, Size: 8192, Base: 0, FaultOverhead: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d: expected error", i)
		}
	}
}

func TestReadFaultThenLocality(t *testing.T) {
	m := cluster(t)
	prog := sharedProg(4, func(u *annotate.Unit, th *trace.Thread, rank int) {
		if rank != 1 {
			return
		}
		x := u.SharedArray("x", ops.MemWord, 1)
		u.Load(x) // first touch: read fault
		u.Load(x) // locality: no further fault
		u.Load(x)
	})
	res, err := m.RunProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	l := m.DSM()
	if dsmCount(l, "read faults") != 1 {
		t.Fatalf("read faults = %d, want 1 (page cached after first)", dsmCount(l, "read faults"))
	}
	if dsmCount(l, "page transfers") != 1 {
		t.Fatalf("page transfers = %d", dsmCount(l, "page transfers"))
	}
	// The fault generated real network traffic without any app-level send.
	if msgs, _ := res.Stats.Prefixed("network ").Get("messages"); msgs == 0 {
		t.Fatal("no network messages for the remote fault")
	}
}

func TestWriteInvalidatesReaders(t *testing.T) {
	m := cluster(t)
	// Rank 1 and 2 read the page; then rank 3 writes it; then rank 1 reads
	// again (must re-fault). Sequencing via explicit messages.
	prog := sharedProg(4, func(u *annotate.Unit, th *trace.Thread, rank int) {
		x := u.SharedArray("x", ops.MemWord, 1)
		switch rank {
		case 1, 2:
			u.Load(x)
			th.Send(3, 4, 9, nil) // "I have read"
			th.Recv(3, 10)        // wait for the writer
			u.Load(x)             // must re-fault: copy was invalidated
		case 3:
			th.Recv(1, 9)
			th.Recv(2, 9)
			u.Store(x)
			th.ASend(1, 4, 10, nil)
			th.ASend(2, 4, 10, nil)
		}
	})
	if _, err := m.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	l := m.DSM()
	if dsmCount(l, "invalidations") != 2 {
		t.Fatalf("invalidations = %d, want 2 (both readers)", dsmCount(l, "invalidations"))
	}
	// Re-reads: 2 initial + 2 after invalidation = 4 read faults.
	if dsmCount(l, "read faults") != 4 {
		t.Fatalf("read faults = %d, want 4", dsmCount(l, "read faults"))
	}
	if dsmCount(l, "write faults") != 1 {
		t.Fatalf("write faults = %d, want 1", dsmCount(l, "write faults"))
	}
}

func TestOwnershipMigration(t *testing.T) {
	m := cluster(t)
	prog := sharedProg(4, func(u *annotate.Unit, th *trace.Thread, rank int) {
		x := u.SharedArray("x", ops.MemWord, 1)
		switch rank {
		case 1:
			u.Store(x) // become owner
			th.Send(2, 4, 9, nil)
		case 2:
			th.Recv(1, 9)
			u.Store(x) // migrate ownership: flush + invalidate at 1
		}
	})
	if _, err := m.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	l := m.DSM()
	if dsmCount(l, "write faults") != 2 {
		t.Fatalf("write faults = %d, want 2", dsmCount(l, "write faults"))
	}
	// The second write forced the first owner's copy out (flush demand
	// demotes, then the invalidation removes the read copy).
	if dsmCount(l, "invalidations") == 0 {
		t.Fatal("no invalidation on ownership migration")
	}
}

func TestWriteThenLocalReadsNoFault(t *testing.T) {
	m := cluster(t)
	prog := sharedProg(4, func(u *annotate.Unit, th *trace.Thread, rank int) {
		if rank != 2 {
			return
		}
		x := u.SharedArray("x", ops.MemWord, 1)
		u.Store(x)
		u.Load(x) // write rights imply read rights
		u.Store(x)
	})
	if _, err := m.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	l := m.DSM()
	if dsmCount(l, "write faults") != 1 || dsmCount(l, "read faults") != 0 {
		t.Fatalf("faults = %d write / %d read, want 1/0", dsmCount(l, "write faults"), dsmCount(l, "read faults"))
	}
}

func TestFalseSharingPingPong(t *testing.T) {
	m := cluster(t)
	const rounds = 5
	// Nodes 1 and 2 alternately write two different words in the same page:
	// the page ping-pongs between them (the classic DSM false-sharing
	// pathology, visible as ~2 page moves per round).
	prog := sharedProg(4, func(u *annotate.Unit, th *trace.Thread, rank int) {
		a := u.SharedArray("a", ops.MemWord, 1)
		b := u.SharedArray("b", ops.MemWord, 1) // same page as a
		for i := 0; i < rounds; i++ {
			switch rank {
			case 1:
				u.Store(a)
				th.Send(2, 4, 9, nil)
				th.Recv(2, 10)
			case 2:
				th.Recv(1, 9)
				u.Store(b)
				th.ASend(1, 4, 10, nil)
			}
		}
	})
	if _, err := m.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	l := m.DSM()
	if dsmCount(l, "write faults") < 2*rounds-1 {
		t.Fatalf("write faults = %d, want ~%d (page ping-pong)", dsmCount(l, "write faults"), 2*rounds)
	}
}

func TestCachesFlushedOnPageInvalidation(t *testing.T) {
	m := cluster(t)
	prog := sharedProg(4, func(u *annotate.Unit, th *trace.Thread, rank int) {
		x := u.SharedArray("x", ops.MemWord, 1)
		switch rank {
		case 1:
			u.Load(x) // page + cache line at node 1
			th.Send(2, 4, 9, nil)
			th.Recv(2, 10)
			u.Load(x) // must MISS in cache too: line was dropped with the page
		case 2:
			th.Recv(1, 9)
			u.Store(x)
			th.ASend(1, 4, 10, nil)
		}
	})
	res, err := m.RunProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	l1 := res.Stats.Lookup("node1", "memory-hierarchy", "node1.cpu0.L1")
	// Two loads of the same line, but the invalidation in between forces two
	// cache misses.
	if inv, _ := l1.Get("snoop invalidations"); inv == 0 {
		t.Fatal("cache lines not dropped with the page")
	}
	loads, _ := res.Stats.Lookup("node1", "cpu0").Get(ops.Load.String())
	misses, _ := l1.Get("misses")
	if loads != 2 || misses < 2 {
		t.Fatalf("loads=%v cache misses=%v, want 2 misses", loads, misses)
	}
}

func TestSharedAddressesAgreeAcrossThreads(t *testing.T) {
	addrs := make([]uint64, 4)
	m := cluster(t)
	prog := sharedProg(4, func(u *annotate.Unit, th *trace.Thread, rank int) {
		u.SharedArray("first", ops.MemFloat8, 1)
		arr := u.SharedArray("arr", ops.MemWord, 100)
		addrs[rank] = arr.Addr
	})
	if _, err := m.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	for r := 1; r < 4; r++ {
		if addrs[r] != addrs[0] {
			t.Fatalf("rank %d allocated arr at %#x, rank 0 at %#x", r, addrs[r], addrs[0])
		}
	}
}

func TestDSMRequiresDetailedMultiNode(t *testing.T) {
	cfg := machine.PPC601Machine()
	d := dsm.DefaultConfig()
	cfg.DSM = &d
	if _, err := machine.New(cfg); err == nil {
		t.Fatal("expected error: DSM on a single-node machine")
	}
}

// Concurrent mixed access: many nodes read and write two pages; the run must
// terminate (protocol deadlock-freedom) and respect single-writer semantics
// per page (observed indirectly: every write fault migrated ownership).
func TestConcurrentAccessTerminates(t *testing.T) {
	m := cluster(t)
	prog := sharedProg(4, func(u *annotate.Unit, th *trace.Thread, rank int) {
		x := u.SharedArray("x", ops.MemWord, 1)
		big := u.SharedArray("big", ops.MemFloat8, 1024) // spans 2 pages (8 KiB)
		for i := 0; i < 10; i++ {
			u.Load(x)
			u.StoreElem(big, (rank*111+i*7)%1024)
			u.LoadElem(big, (rank*53+i*13)%1024)
		}
	})
	res, err := m.RunProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Fatal("no time simulated")
	}
	l := m.DSM()
	if dsmCount(l, "write faults") == 0 || dsmCount(l, "read faults") == 0 {
		t.Fatalf("faults: %d write, %d read", dsmCount(l, "write faults"), dsmCount(l, "read faults"))
	}
}

func TestManyNodesConcurrentSharing(t *testing.T) {
	// 3x3 torus, nine nodes hammering a handful of shared pages: must
	// terminate, and protocol counters stay consistent (every write fault
	// migrates a page; invalidations never exceed faults x nodes).
	cfg := machine.DSMCluster(3, 3)
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog := sharedProg(9, func(u *annotate.Unit, th *trace.Thread, rank int) {
		arr := u.SharedArray("arr", ops.MemFloat8, 2048) // 16 KiB: 4 pages
		for i := 0; i < 12; i++ {
			u.LoadElem(arr, (rank*97+i*31)%2048)
			if i%3 == rank%3 {
				u.StoreElem(arr, (rank*13+i*7)%2048)
			}
		}
	})
	if _, err := m.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	l := m.DSM()
	if dsmCount(l, "page transfers") == 0 {
		t.Fatal("no page transfers")
	}
	faults := dsmCount(l, "read faults") + dsmCount(l, "write faults")
	if dsmCount(l, "invalidations") > faults*9 {
		t.Fatalf("invalidations %d inconsistent with %d faults", dsmCount(l, "invalidations"), faults)
	}
}

// dsmCount reads one protocol counter from the layer's report set.
func dsmCount(l *dsm.Layer, name string) uint64 {
	v, _ := l.Stats().Get(name)
	return uint64(v)
}
