package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"mermaid/internal/ops"
)

func TestSliceSource(t *testing.T) {
	trace := []ops.Op{ops.NewArith(ops.Add, ops.TypeInt), ops.NewLoad(ops.MemWord, 8)}
	src := FromOps(trace)
	got, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != trace[0] || got[1] != trace[1] {
		t.Fatalf("got %v", got)
	}
	if _, _, err := src.NextBatch(); err != io.EOF {
		t.Fatalf("err = %v, want EOF", err)
	}
}

func TestReaderSource(t *testing.T) {
	trace := []ops.Op{ops.NewIFetch(4), ops.NewCompute(10)}
	var buf bytes.Buffer
	if err := ops.WriteAll(&buf, trace); err != nil {
		t.Fatal(err)
	}
	got, err := Collect(FromReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1] != trace[1] {
		t.Fatalf("got %v", got)
	}
}

func TestProgramLocalOps(t *testing.T) {
	pr := &Program{
		Threads: 2,
		Body: func(th *Thread) {
			for i := 0; i < 5; i++ {
				th.Emit(ops.NewArith(ops.Add, ops.TypeInt))
			}
		},
	}
	threads := pr.Start()
	for i, th := range threads {
		got, err := Collect(th)
		if err != nil {
			t.Fatalf("thread %d: %v", i, err)
		}
		if len(got) != 5 {
			t.Fatalf("thread %d: %d ops", i, len(got))
		}
	}
}

func TestProgramThreadIdentity(t *testing.T) {
	ids := make(chan int, 3)
	pr := &Program{
		Threads: 3,
		Body: func(th *Thread) {
			if th.Threads() != 3 {
				t.Errorf("Threads() = %d", th.Threads())
			}
			ids <- th.ID()
		},
	}
	for _, th := range pr.Start() {
		if _, err := Collect(th); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[int]bool)
	for i := 0; i < 3; i++ {
		seen[<-ids] = true
	}
	if len(seen) != 3 {
		t.Fatalf("ids = %v", seen)
	}
}

func TestProgramGlobalEventSuspendsUntilResumed(t *testing.T) {
	var order []string
	pr := &Program{
		Threads: 1,
		Body: func(th *Thread) {
			order = append(order, "before-send")
			th.Send(0, 64, 0, "payload")
			order = append(order, "after-send")
		},
	}
	th := pr.Start()[0]
	ev, err := th.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Op.Kind != ops.Send || ev.Payload != "payload" || ev.Resume == nil {
		t.Fatalf("event = %+v", ev)
	}
	if len(order) != 1 || order[0] != "before-send" {
		t.Fatalf("order after the first pull: %v", order)
	}
	// Feedback only records the answer: the body continues at the next
	// pull, not when it is given.
	ev.Resume(Feedback{})
	if len(order) != 1 {
		t.Fatalf("thread ran past global event on feedback alone: %v", order)
	}
	if _, err := th.Next(); err != io.EOF {
		t.Fatalf("err = %v, want EOF", err)
	}
	if len(order) != 2 || order[1] != "after-send" {
		t.Fatalf("order after the second pull: %v", order)
	}
}

func TestProgramRecvFeedbackCarriesData(t *testing.T) {
	var got any
	var gotSrc int
	pr := &Program{
		Threads: 1,
		Body: func(th *Thread) {
			gotSrc, got = th.RecvAny(7)
		},
	}
	th := pr.Start()[0]
	ev, err := th.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Op.Kind != ops.Recv || ev.Op.Peer != ops.AnyPeer || ev.Op.Tag != 7 {
		t.Fatalf("op = %v", ev.Op)
	}
	ev.Resume(Feedback{Peer: 3, Tag: 7, Payload: []int{1, 2}})
	if _, err := th.Next(); err != io.EOF {
		t.Fatal(err)
	}
	if gotSrc != 3 || got == nil {
		t.Fatalf("feedback src=%d payload=%v", gotSrc, got)
	}
}

func TestEmitRejectsGlobalEvents(t *testing.T) {
	pr := &Program{
		Threads: 1,
		Body: func(th *Thread) {
			th.Emit(ops.NewSend(1, 0, 0)) // must panic -> surfaced by Next
		},
	}
	th := pr.Start()[0]
	if _, err := th.Next(); err == nil {
		t.Fatal("expected panic surfaced as error")
	}
}

func TestThreadPanicSurfaced(t *testing.T) {
	pr := &Program{
		Threads: 1,
		Body:    func(th *Thread) { panic("app bug") },
	}
	th := pr.Start()[0]
	if _, err := th.Next(); err == nil {
		t.Fatal("expected error from panicking thread")
	}
}

func TestCollectRefusesGlobalEvents(t *testing.T) {
	pr := &Program{
		Threads: 1,
		Body:    func(th *Thread) { th.Send(0, 8, 0, nil) },
	}
	th := pr.Start()[0]
	if _, err := Collect(th); err == nil {
		t.Fatal("Collect must refuse global events")
	}
}

// waitGoroutines polls until the goroutine count drops back to at most want,
// failing after a deadline.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.Gosched()
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d alive, want <= %d\n%s",
				runtime.NumGoroutine(), want, buf[:n])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCloseReapsParkedThreads is the regression test for the generator
// leak: the coroutines of an abandoned run — suspended on a full batch or
// awaiting global-event feedback — must end once the program is closed, or
// a farm running thousands of simulations in one process accumulates them
// forever.
func TestCloseReapsParkedThreads(t *testing.T) {
	before := runtime.NumGoroutine()
	const programs = 20
	for i := 0; i < programs; i++ {
		pr := &Program{
			Threads: 4,
			Body: func(th *Thread) {
				// Thread 0 suspends awaiting feedback for its global event;
				// the rest fill a batch and suspend on it.
				if th.ID() == 0 {
					th.Send(1, 64, 0, nil)
				}
				for j := 0; j < 100; j++ {
					th.Emit(ops.NewArith(ops.Add, ops.TypeInt))
				}
			},
		}
		// Simulate an aborted run: start every thread, consume a single
		// event of each, then give up.
		for _, th := range pr.Start() {
			if _, err := th.Next(); err != nil {
				t.Fatal(err)
			}
		}
		pr.Close()
	}
	waitGoroutines(t, before)
}

// TestCloseRunsThreadDefers checks that closing unwinds thread bodies
// through their deferred calls — application cleanup still runs.
func TestCloseRunsThreadDefers(t *testing.T) {
	var cleaned []int
	pr := &Program{
		Threads: 2,
		Body: func(th *Thread) {
			defer func() { cleaned = append(cleaned, th.ID()) }()
			th.Send(1-th.ID(), 8, 0, nil) // suspends for good: nobody answers
		},
	}
	for _, th := range pr.Start() {
		if ev, err := th.Next(); err != nil || ev.Op.Kind != ops.Send {
			t.Fatalf("first pull = %v, %v; want the send", ev.Op, err)
		}
	}
	pr.Close()
	if len(cleaned) != 2 {
		t.Fatalf("deferred cleanup ran for threads %v after Close, want both", cleaned)
	}
}

// TestCloseIdempotentAndAfterCompletion checks Close is safe twice and after
// a program ran to completion.
func TestCloseIdempotentAndAfterCompletion(t *testing.T) {
	pr := &Program{
		Threads: 1,
		Body: func(th *Thread) {
			th.Emit(ops.NewArith(ops.Add, ops.TypeInt))
		},
	}
	th := pr.Start()[0]
	if _, err := Collect(th); err != nil {
		t.Fatal(err)
	}
	pr.Close()
	pr.Close()
	if _, err := th.Next(); err != io.EOF {
		t.Fatalf("Next after Close = %v, want EOF", err)
	}
}

// TestNeverPulledThreadRunsNothing: a body starts at its thread's first
// pull, so a thread the simulator never reached runs nothing — not even when
// the program is closed, nor when it is pulled after that.
func TestNeverPulledThreadRunsNothing(t *testing.T) {
	ran := false
	pr := &Program{
		Threads: 2,
		Body:    func(th *Thread) { ran = true },
	}
	th := pr.Start()[1]
	pr.Close()
	if _, err := th.Next(); err != io.EOF {
		t.Fatalf("Next after Close = %v, want EOF", err)
	}
	if ran {
		t.Fatal("a thread that was never pulled ran its body")
	}
}

// mustPanic runs f and returns the message it panicked with.
func mustPanic(t *testing.T, f func()) string {
	t.Helper()
	var v any
	func() {
		defer func() { v = recover() }()
		f()
	}()
	if v == nil {
		t.Fatal("no panic")
	}
	return fmt.Sprint(v)
}

// A simulator that pulls past a global event without answering it would let
// the body read feedback that never came; that is a panic naming the thread,
// not a silent wrong answer or a hang.
func TestPullPastGlobalEventWithoutFeedbackPanics(t *testing.T) {
	pr := &Program{
		Threads: 3,
		Body: func(th *Thread) {
			th.Recv(0, 0)
			th.Emit(ops.NewArith(ops.Add, ops.TypeInt))
		},
	}
	defer pr.Close()
	th := pr.Start()[2]
	if ev, err := th.Next(); err != nil || ev.Resume == nil {
		t.Fatalf("first pull = %+v, %v; want the recv", ev, err)
	}
	msg := mustPanic(t, func() { th.Next() })
	if !strings.Contains(msg, "thread 2") || !strings.Contains(msg, "without feedback") {
		t.Fatalf("panic %q does not name thread 2 and the missing feedback", msg)
	}
}

func TestFeedbackTwicePanics(t *testing.T) {
	pr := &Program{
		Threads: 2,
		Body:    func(th *Thread) { th.Send(0, 8, 0, nil) },
	}
	defer pr.Close()
	th := pr.Start()[1]
	ev, err := th.Next()
	if err != nil {
		t.Fatal(err)
	}
	ev.Resume(Feedback{})
	msg := mustPanic(t, func() { ev.Resume(Feedback{}) })
	if !strings.Contains(msg, "thread 1") || !strings.Contains(msg, "twice") {
		t.Fatalf("panic %q does not name thread 1 and the second feedback", msg)
	}
}

// A body that panics delivers the locals it emitted before the panic, then
// ends its stream with the panic as the error.
func TestPanicDeliversLocalsThenError(t *testing.T) {
	pr := &Program{
		Threads: 1,
		Body: func(th *Thread) {
			for i := 0; i < 3; i++ {
				th.Emit(ops.NewLoad(ops.MemWord, uint64(i)))
			}
			panic("app bug")
		},
	}
	th := pr.Start()[0]
	for i := uint64(0); i < 3; i++ {
		if ev, err := th.Next(); err != nil || ev.Op.Addr != i {
			t.Fatalf("local %d = %v, %v", i, ev.Op, err)
		}
	}
	_, err := th.Next()
	if err == nil || err.Error() != "trace: thread 0 panicked: app bug" {
		t.Fatalf("err after the locals = %v, want the panic", err)
	}
	if _, again := th.Next(); again != err {
		t.Fatalf("err is not sticky: %v then %v", err, again)
	}
}

// TestRunAheadBounded: a thread gets at most one batch ahead of the
// simulator. At no time, seen from either side, has it emitted more than
// defaultBatch+1 operations the simulator has not consumed.
func TestRunAheadBounded(t *testing.T) {
	var consumed, worst uint64
	pr := &Program{
		Threads: 1,
		Body: func(th *Thread) {
			for i := 0; i < 1000; i++ {
				if i%100 == 99 {
					th.Send(0, 8, 0, nil)
				} else {
					th.Emit(ops.NewArith(ops.Add, ops.TypeInt))
				}
				worst = max(worst, th.emitted-consumed)
			}
		},
	}
	th := pr.Start()[0]
	for {
		ev, err := th.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		worst = max(worst, th.emitted-consumed)
		consumed++
		if ev.Resume != nil {
			ev.Resume(Feedback{})
		}
	}
	if consumed != 1000 {
		t.Fatalf("consumed %d ops, want 1000", consumed)
	}
	if worst > defaultBatch+1 {
		t.Fatalf("thread ran %d operations ahead of the simulator, want <= %d", worst, defaultBatch+1)
	}
}

// TestFullBatchThenGlobalEvent: a thread emits exactly one batch of locals,
// then a send with a payload, then three locals and a second send, then one
// more local. The full batch's last local carries no plumbing, each send
// carries its payload and resume, and the locals batched ahead of the second
// send and the one after it carry neither, whether the thread is read per
// operation or through a cursor.
func TestFullBatchThenGlobalEvent(t *testing.T) {
	payloads := map[int]string{64: "first", 68: "second"} // event index -> send payload
	for _, viaCursor := range []bool{false, true} {
		pr := &Program{Threads: 1, Body: func(th *Thread) {
			for i := 0; i < 64; i++ {
				th.Emit(ops.NewCompute(int64(i)))
			}
			th.Send(0, 8, 3, "first")
			for i := 64; i < 67; i++ {
				th.Emit(ops.NewCompute(int64(i)))
			}
			th.Send(0, 8, 4, "second")
			th.Emit(ops.NewCompute(67))
		}}
		th := pr.Start()[0]
		var src interface{ Next() (Event, error) } = th
		if viaCursor {
			src = NewCursor(th)
		}
		local := int64(0)
		for i := 0; i < 70; i++ {
			ev, err := src.Next()
			if err != nil {
				t.Fatalf("cursor %v, event %d: %v", viaCursor, i, err)
			}
			if p, ok := payloads[i]; ok {
				if ev.Op.Kind != ops.Send || ev.Payload != p || ev.Resume == nil {
					t.Fatalf("cursor %v: send %q reads %v, payload %v, resume set %v", viaCursor, p, ev.Op, ev.Payload, ev.Resume != nil)
				}
				ev.Resume(Feedback{})
				continue
			}
			if ev.Op.Kind != ops.Compute || ev.Op.Dur != local || ev.Payload != nil || ev.Resume != nil {
				t.Fatalf("cursor %v: local %d reads %v, payload %v, resume set %v", viaCursor, local, ev.Op, ev.Payload, ev.Resume != nil)
			}
			local++
		}
		if _, err := src.Next(); err != io.EOF {
			t.Fatalf("cursor %v: after the last event: %v, want io.EOF", viaCursor, err)
		}
	}
}

// TestReaderSourceTruncated: a binary trace cut inside its last record reads
// through a Cursor as every whole operation before the cut, in order, and
// then the decode error on every later Peek and Next — across more than two
// reader batches.
func TestReaderSourceTruncated(t *testing.T) {
	const n = 600
	trace := numbered(n)
	var buf bytes.Buffer
	if err := ops.WriteAll(&buf, trace); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-1]
	cur := NewCursor(FromReader(bytes.NewReader(cut)))
	for i := 0; i < n-1; i++ {
		ev, err := cur.Next()
		if err != nil || ev.Op != trace[i] {
			t.Fatalf("op %d = %v, %v; want %v", i, ev.Op, err, trace[i])
		}
	}
	_, err := cur.Peek()
	if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ops.ErrBadTrace) {
		t.Fatalf("after the last whole op: %v, want a decode error", err)
	}
	for rep := 0; rep < 3; rep++ {
		if _, again := cur.Peek(); again != err {
			t.Fatalf("Peek #%d = %v, want the same error %v", rep, again, err)
		}
		if _, again := cur.Next(); again != err {
			t.Fatalf("Next #%d = %v, want the same error %v", rep, again, err)
		}
	}
}
