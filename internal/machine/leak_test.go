package machine

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"mermaid/internal/cache"
	"mermaid/internal/fault"
	"mermaid/internal/ops"
	"mermaid/internal/trace"
	"mermaid/internal/workload"
)

// A run must not outlive itself: processes that never terminate by design
// (DSM managers, store-buffer drains) and processes an aborted run leaves
// blocked are coroutines — goroutines to the runtime —, each holding its
// whole machine alive, until Machine.Run closes the kernels behind it.

// settled waits for the goroutine count to return to base: the kernels'
// workers are gone when Run returns, but a reaped generator goroutine may
// still be on the scheduler's books for a moment.
func settled(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the runs:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRunLeavesNoGoroutines(t *testing.T) {
	storeBuffered := PPC601Machine()
	for i := range storeBuffered.Node.Hierarchy.Private {
		storeBuffered.Node.Hierarchy.Private[i].Write = cache.WriteThrough
	}
	storeBuffered.Node.Hierarchy.StoreBuffer = 4
	severed := T805Grid(2, 1)
	severed.Faults = &fault.Schedule{
		Links:   []fault.LinkFault{{A: 0, B: 1, Window: fault.Window{From: 0}}},
		Retrans: fault.Retrans{Timeout: 100, Backoff: 2, MaxRetries: 2},
	}
	sharded := T805GridTaskLevel(2, 2)
	sharded.Shards = 2

	for name, run := range map[string]func(t *testing.T){
		"DSM managers": func(t *testing.T) {
			m, err := New(DSMCluster(2, 2))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.RunProgram(workload.JacobiDSM(4, 32, 2)); err != nil {
				t.Fatal(err)
			}
		},
		"store-buffer drain": func(t *testing.T) {
			m, err := New(storeBuffered)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run([]trace.Source{trace.FromOps([]ops.Op{
				ops.NewStore(ops.MemWord, 0x100), ops.NewLoad(ops.MemWord, 0x100),
			})}); err != nil {
				t.Fatal(err)
			}
		},
		"deadlock": func(t *testing.T) {
			m, err := New(severed)
			if err != nil {
				t.Fatal(err)
			}
			_, err = m.RunProgram(workload.PingPong(10, 1024))
			var dead *DeadlockError
			if !errors.As(err, &dead) {
				t.Fatalf("severed machine finished with err = %v, want DeadlockError", err)
			}
			// Closing unwinds the runners, whose deferred "done" must not
			// have masked the deadlock, nor emptied its diagnosis.
			if len(dead.Blocked) == 0 || !strings.Contains(dead.Error(), "node") {
				t.Errorf("deadlock names no blocked process: %v", dead)
			}
		},
		"deadlock on the parallel engine": func(t *testing.T) {
			m, err := New(sharded)
			if err != nil {
				t.Fatal(err)
			}
			_, err = m.Run([]trace.Source{
				trace.FromOps([]ops.Op{ops.NewRecv(1, 0)}), // never sent
				trace.FromOps(nil), trace.FromOps(nil), trace.FromOps(nil),
			})
			var dead *DeadlockError
			if !errors.As(err, &dead) {
				t.Fatalf("err = %v, want DeadlockError", err)
			}
		},
		"callback panic": func(t *testing.T) {
			m, err := New(DSMCluster(2, 2))
			if err != nil {
				t.Fatal(err)
			}
			m.Kernel().After(200, func() { panic("kaput") })
			defer func() {
				if v := recover(); v != "kaput" {
					t.Errorf("Run panicked with %v, want the callback's panic", v)
				}
			}()
			_, _ = m.RunProgram(workload.JacobiDSM(4, 32, 2)) // panics; nothing to check
			t.Error("Run returned past a panicking callback")
		},
		"wrong stream count": func(t *testing.T) {
			// attach fails after the machine — drains included — is built.
			m, err := New(storeBuffered)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(nil); err == nil {
				t.Fatal("no error for zero streams")
			}
			if _, err := m.Run([]trace.Source{trace.FromOps(nil)}); err == nil || !strings.Contains(err.Error(), "already run") {
				t.Errorf("second Run: err = %v, want a refusal", err)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			for i := 0; i < 5; i++ {
				run(t)
			}
			settled(t, base)
		})
	}
}
