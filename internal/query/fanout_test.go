package query

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"aodb/internal/core"
)

// gauge counts the fan-out calls executing inside actors at once and
// keeps the high-water mark.
type gauge struct {
	inFlight, peak atomic.Int64
}

func (g *gauge) enter() {
	n := g.inFlight.Add(1)
	for {
		p := g.peak.Load()
		if n <= p || g.peak.CompareAndSwap(p, n) {
			return
		}
	}
}

// gaugeRuntime registers kind "Gauge": each turn is observed by g, calls
// onTurn (when set) and sleeps hold, then answers its own key.
func gaugeRuntime(t *testing.T, g *gauge, hold time.Duration, onTurn func(key string)) *core.Runtime {
	t.Helper()
	rt, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		rt.Shutdown(ctx)
	})
	err = rt.RegisterKind("Gauge", func() core.Actor {
		return actorFunc(func(ctx *core.Context, _ any) (any, error) {
			g.enter()
			defer g.inFlight.Add(-1)
			if onTurn != nil {
				onTurn(ctx.Self().Key)
			}
			time.Sleep(hold)
			return ctx.Self().Key, nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddSilo("silo-1", nil); err != nil {
		t.Fatal(err)
	}
	return rt
}

type actorFunc func(ctx *core.Context, msg any) (any, error)

func (f actorFunc) Receive(ctx *core.Context, msg any) (any, error) { return f(ctx, msg) }

func gaugeTargets(n int) []core.ID {
	ids := make([]core.ID, n)
	for i := range ids {
		ids[i] = core.ID{Kind: "Gauge", Key: fmt.Sprintf("g%d", i)}
	}
	return ids
}

// TestFanOutNeverExceedsParallelism: the in-actor gauge never sees more
// than Parallelism fan-out calls at once, and results keep target order.
func TestFanOutNeverExceedsParallelism(t *testing.T) {
	for _, par := range []int{1, 3, 8} {
		var g gauge
		rt := gaugeRuntime(t, &g, 2*time.Millisecond, nil)
		e := NewEngine(rt)
		e.Parallelism = par
		ids := gaugeTargets(40)
		results := e.FanOut(context.Background(), ids, readMsg{})
		if peak := g.peak.Load(); peak > int64(par) {
			t.Fatalf("Parallelism %d: %d calls in flight at once", par, peak)
		}
		for i, r := range results {
			if r.Err != nil || r.Actor != ids[i] || r.Value != ids[i].Key {
				t.Fatalf("Parallelism %d: result %d = %+v, want %s", par, i, r, ids[i])
			}
		}
	}
}

// TestFanOutCancelledMidwayFillsEverySlot: ctx is cancelled from inside
// the fifth turn. Every slot still names its target in order and holds
// either that target's answer or an error; the targets not yet claimed
// report the cancellation.
func TestFanOutCancelledMidwayFillsEverySlot(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var g gauge
	var turns atomic.Int64
	rt := gaugeRuntime(t, &g, time.Millisecond, func(string) {
		if turns.Add(1) == 5 {
			cancel()
		}
	})
	e := NewEngine(rt)
	e.Parallelism = 2
	ids := gaugeTargets(40)
	results := e.FanOut(ctx, ids, readMsg{})
	cancelled := 0
	for i, r := range results {
		if r.Actor != ids[i] {
			t.Fatalf("slot %d names %s, want %s", i, r.Actor, ids[i])
		}
		switch {
		case r.Err != nil:
			if errors.Is(r.Err, context.Canceled) {
				cancelled++
			}
		case r.Value != ids[i].Key:
			t.Fatalf("slot %d = %v, want %s", i, r.Value, ids[i].Key)
		}
	}
	if cancelled < len(ids)-10 {
		t.Fatalf("only %d of %d slots report the cancellation", cancelled, len(ids))
	}
	if peak := g.peak.Load(); peak > 2 {
		t.Fatalf("%d calls in flight at once, Parallelism 2", peak)
	}
}
