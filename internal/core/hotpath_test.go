package core

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// nonceMsg asks the echo actor to wait Delay, then answer Nonce.
type nonceMsg struct {
	Nonce uint64
	Delay time.Duration
}

func echoNonce(_ *Context, msg any) (any, error) {
	m := msg.(nonceMsg)
	if m.Delay > 0 {
		time.Sleep(m.Delay)
	}
	return m.Nonce, nil
}

// TestReplyCellsNeverCrossCallers: many callers with short random
// deadlines abandon their reply cells while turns are still queued or
// running; the late replies land in those abandoned cells. Every call
// that succeeds must carry its own nonce — a reply written into a cell
// after the cell was recycled would surface as another caller's nonce.
func TestReplyCellsNeverCrossCallers(t *testing.T) {
	rt := newTestRuntime(t, Config{Retry: RetryPolicy{Disabled: true}})
	if err := rt.RegisterKind("Echo", func() Actor { return actorFunc(echoNonce) }); err != nil {
		t.Fatal(err)
	}
	addSilo(t, rt, "s1")

	const callers, perCaller, actors = 32, 60, 4
	var nonce atomic.Uint64
	var ok, abandoned atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perCaller; i++ {
				n := nonce.Add(1)
				id := ID{"Echo", string(rune('a' + rng.Intn(actors)))}
				msg := nonceMsg{Nonce: n, Delay: time.Duration(rng.Intn(300)) * time.Microsecond}
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(rng.Intn(2000))*time.Microsecond)
				v, err := rt.Call(ctx, id, msg)
				cancel()
				if err != nil {
					if !errors.Is(err, context.DeadlineExceeded) {
						t.Errorf("call %d: %v", n, err)
					}
					abandoned.Add(1)
					continue
				}
				if got := v.(uint64); got != n {
					t.Errorf("call %d got reply %d: a reply crossed callers", n, got)
				}
				ok.Add(1)
			}
		}(int64(c))
	}
	wg.Wait()
	if ok.Load() == 0 || abandoned.Load() == 0 {
		t.Fatalf("want both outcomes exercised: %d succeeded, %d abandoned", ok.Load(), abandoned.Load())
	}
}

// assertPooledCellsEmpty drains the reply-cell pool and fails if any
// pooled cell still holds a reply.
func assertPooledCellsEmpty(t *testing.T) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if c := replyCells.Get().(chan turnResult); len(c) != 0 {
			t.Fatalf("pooled reply cell holds %d stale replies", len(c))
		}
	}
}

// TestCrashedCallersReturnEmptyCells: calls failed by a silo crash are
// answered by env.fail; each caller receives that one reply before its
// cell goes back to the pool, so no pooled cell holds a value.
func TestCrashedCallersReturnEmptyCells(t *testing.T) {
	rt := newTestRuntime(t, Config{Retry: RetryPolicy{Disabled: true}})
	gate := make(chan struct{})
	if err := rt.RegisterKind("Chaos", func() Actor { return &chaosActor{gate: gate} }); err != nil {
		t.Fatal(err)
	}
	addSilo(t, rt, "s1")
	id := ID{"Chaos", "x"}
	held := make(chan error, 1)
	go func() {
		_, err := rt.Call(context.Background(), id, holdMsg{})
		held <- err
	}()
	waitForActive(t, rt, 1)
	const n = 8
	queued := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := rt.Call(context.Background(), id, getMsg{})
			queued <- err
		}()
	}
	waitForQueued(t, rt, id, n)
	if err := rt.CrashSilo("s1"); err != nil {
		t.Fatal(err)
	}
	close(gate)
	<-held
	for i := 0; i < n; i++ {
		if err := <-queued; err == nil || !Transient(err) {
			t.Fatalf("queued call error = %v, want transient crash failure", err)
		}
	}
	assertPooledCellsEmpty(t)
}

// TestClosedMailboxCallersReturnEmptyCells: the same for calls failed
// by a mailbox close (a panicking turn poisons the activation).
func TestClosedMailboxCallersReturnEmptyCells(t *testing.T) {
	rt := newTestRuntime(t, Config{Retry: RetryPolicy{Disabled: true}})
	gate := make(chan struct{})
	if err := rt.RegisterKind("Chaos", func() Actor { return &chaosActor{gate: gate} }); err != nil {
		t.Fatal(err)
	}
	addSilo(t, rt, "s1")
	id := ID{"Chaos", "x"}
	held := make(chan error, 1)
	go func() {
		_, err := rt.Call(context.Background(), id, holdMsg{})
		held <- err
	}()
	waitForActive(t, rt, 1)
	bombed := make(chan error, 1)
	go func() {
		_, err := rt.Call(context.Background(), id, panicMsg{})
		bombed <- err
	}()
	waitForQueued(t, rt, id, 1)
	const n = 8
	queued := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := rt.Call(context.Background(), id, getMsg{})
			queued <- err
		}()
	}
	waitForQueued(t, rt, id, n+1)
	close(gate)
	<-held
	if err := <-bombed; !errors.Is(err, ErrActorPanic) {
		t.Fatalf("panicking call error = %v, want ErrActorPanic", err)
	}
	for i := 0; i < n; i++ {
		if err := <-queued; err == nil || !Transient(err) {
			t.Fatalf("queued call error = %v, want transient", err)
		}
	}
	assertPooledCellsEmpty(t)
}

// TestHotPathAllocs pins the in-process hot path: a call to an active
// actor, and a call into an actor that Tells another, each allocate at
// most once (the race detector's instrumentation allocates, so the
// check only runs without it).
func TestHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rt := newTestRuntime(t, Config{IdleAfter: time.Hour, CollectEvery: time.Hour})
	var sunk atomic.Int64
	sink := ID{"Sink", "s"}
	reg := func(kind string, f actorFunc) {
		if err := rt.RegisterKind(kind, func() Actor { return f }); err != nil {
			t.Fatal(err)
		}
	}
	reg("Echo", func(_ *Context, msg any) (any, error) { return msg, nil })
	reg("Sink", func(_ *Context, msg any) (any, error) { sunk.Add(1); return nil, nil })
	reg("Relay", func(ctx *Context, msg any) (any, error) { return nil, ctx.Tell(sink, msg) })
	addSilo(t, rt, "s1")

	ctx := context.Background()
	var msg any = struct{}{} // boxed once, outside the measured loop
	for _, tc := range []struct {
		name string
		id   ID
	}{
		{"call", ID{"Echo", "e"}},
		{"actor-to-actor tell", ID{"Relay", "r"}},
	} {
		if _, err := rt.Call(ctx, tc.id, msg); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(2000, func() {
			if _, err := rt.Call(ctx, tc.id, msg); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("%s: %.2f allocs per call, want <= 1", tc.name, allocs)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for sunk.Load() < 2002 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := sunk.Load(); got != 2002 {
		t.Fatalf("sink received %d tells, want 2002", got)
	}
}

// TestMailboxRingProperty: interleaved pushes and pops (which wrap and
// grow the ring) always pop in push order.
func TestMailboxRingProperty(t *testing.T) {
	f := func(ops []bool) bool {
		m := newMailbox()
		var model []int
		next := 0
		for _, push := range ops {
			if push || len(model) == 0 {
				m.push(envelope{msg: next})
				model = append(model, next)
				next++
				continue
			}
			env, ok := m.pop()
			if !ok || env.msg.(int) != model[0] || m.depth() != len(model)-1 {
				return false
			}
			model = model[1:]
		}
		for _, want := range model {
			if env, ok := m.pop(); !ok || env.msg.(int) != want {
				return false
			}
		}
		return m.empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
