package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"sync"

	"aodb/internal/capacity"
	"aodb/internal/clock"
	"aodb/internal/directory"
	"aodb/internal/kvstore"
	"aodb/internal/metrics"
	"aodb/internal/telemetry"
	"aodb/internal/transport"
)

// Silo is one logical server hosting activations. In simulated multi-
// server runs all silos live in one Runtime and process; in a real TCP
// deployment each process hosts one.
type Silo struct {
	name    string
	rt      *Runtime
	limiter *capacity.Limiter // nil = unbounded
	metrics *metrics.Registry
	turns   *metrics.Counter // "core.turns", resolved once: bumped every turn

	mu      sync.Mutex
	catalog map[ID]*activation
	closing bool
	crashed bool // closing by crashAll, not by a drain
	// moved records actors handed off to another silo: calls landing here
	// are redirected instead of re-activating locally. Entries expire
	// (pruned by the collector) once cluster views have converged on the
	// new placement. This is what keeps a TCP-mode silo — whose directory
	// is process-local — from resurrecting an actor it just migrated out.
	moved map[ID]movedEntry

	collectorStop chan struct{}
	collectorDone chan struct{}
}

func newSilo(name string, rt *Runtime, limiter *capacity.Limiter) *Silo {
	return &Silo{
		name:          name,
		rt:            rt,
		limiter:       limiter,
		metrics:       rt.metrics,
		turns:         rt.metrics.Counter("core.turns"),
		catalog:       make(map[ID]*activation),
		collectorStop: make(chan struct{}),
		collectorDone: make(chan struct{}),
	}
}

// Name returns the silo's cluster-unique name.
func (s *Silo) Name() string { return s.name }

// Activations returns the number of live activations (for tests and
// benchmark reporting).
func (s *Silo) Activations() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.catalog)
}

// handle is the transport-facing entry point for messages addressed to
// actors this silo should host.
func (s *Silo) handle(ctx context.Context, req transport.Request) (any, error) {
	// Merge the sender's HLC stamp before anything else runs, so every
	// event this delivery causes — service RPCs included — orders after
	// the send. One atomic load when the flight recorder is off.
	var hlc clock.HLC
	if s.rt.journal.Enabled() && req.HLC != 0 {
		hlc = clock.HLC(req.HLC)
		s.rt.journal.Observe(hlc)
	}
	// Reserved service kinds (replication RPCs) bypass actor resolution;
	// a runtime with no services pays one atomic load and a nil check.
	if h := s.rt.service(req.TargetKind); h != nil {
		return h(ctx, s.name, req)
	}
	id := ID{Kind: req.TargetKind, Key: req.TargetKey}
	// An empty sender is an external client; both that and another silo's
	// name count as a remote hop for trace attribution.
	remote := req.Sender != s.name
	return s.deliver(ctx, id, req.Payload, req.Method != "tell", req.Chain, req.Trace, remote, hlc)
}

// deliver routes one message to the actor's activation, creating it if
// needed, and waits for the reply when needReply is set.
func (s *Silo) deliver(ctx context.Context, id ID, msg any, needReply bool, chain []string, trace telemetry.SpanContext, remote bool, hlc clock.HLC) (any, error) {
	var reply chan turnResult
	turnCtx := ctx
	if needReply {
		reply = replyCells.Get().(chan turnResult)
	} else if ctx.Done() != nil {
		// One-way deliveries are acknowledged at enqueue; the turn itself
		// must not be cancelled when the sender moves on. A ctx that can
		// never be cancelled needs no wrapping.
		turnCtx = context.WithoutCancel(ctx)
	}
	env := envelope{ctx: turnCtx, msg: msg, reply: reply, chain: chain, hlc: hlc}
	if s.rt.tracer.Enabled() { // the one check disabled telemetry costs here
		env.trace = trace
		env.remote = remote
		if trace.Sampled {
			// The enqueue timestamp feeds the span's mailbox-wait
			// component; only sampled messages pay the clock read.
			env.enqueuedAt = s.rt.clk.Now()
		}
	}
	for {
		act, err := s.resolve(ctx, id)
		if err != nil {
			putReplyCell(reply) // never queued: no reply can arrive
			return nil, err
		}
		if act.box.push(env) {
			break
		}
		// The activation closed between resolve and push; wait for its
		// teardown to finish, then re-resolve.
		select {
		case <-act.drained:
		case <-ctx.Done():
			putReplyCell(reply)
			return nil, ctx.Err()
		}
	}
	if !needReply {
		return nil, nil
	}
	select {
	case res := <-reply:
		putReplyCell(reply)
		return res.val, res.err
	case <-ctx.Done():
		// Abandon the cell: the queued turn still answers into it.
		return nil, ctx.Err()
	}
}

// resolve returns the live activation for id on this silo, activating the
// actor if this silo wins the directory race. It returns wrongSiloError
// when another silo holds the activation.
func (s *Silo) resolve(ctx context.Context, id ID) (*activation, error) {
	cfg, ok := s.rt.kind(id.Kind)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownKind, id.Kind)
	}
	for {
		s.mu.Lock()
		if s.closing {
			err := s.closedErr()
			s.mu.Unlock()
			return nil, err
		}
		if act, ok := s.catalog[id]; ok {
			s.mu.Unlock()
			return act, nil
		}
		if me, ok := s.moved[id]; ok {
			if s.rt.clk.Now().Before(me.until) {
				s.mu.Unlock()
				return nil, &wrongSiloError{Actor: id.String(), Winner: me.target}
			}
			delete(s.moved, id)
		}
		s.mu.Unlock()

		key := id.String()
		reg, err := s.rt.directory.Register(key, s.name)
		if err != nil {
			if !errors.Is(err, directory.ErrAlreadyRegistered) {
				return nil, err
			}
			if reg.Silo != s.name {
				return nil, &wrongSiloError{Actor: key, Winner: reg.Silo}
			}
			// Registered to this silo but not in the catalog: a previous
			// activation is mid-teardown. Yield and retry.
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			default:
			}
			waitTimer := s.rt.clk.NewTimer(100 * time.Microsecond)
			select {
			case <-ctx.Done():
				waitTimer.Stop()
				return nil, ctx.Err()
			case <-waitTimer.C():
			}
			continue
		}

		act := newActivation(id, key, s, cfg, reg)
		s.mu.Lock()
		if s.closing {
			err := s.closedErr()
			s.mu.Unlock()
			s.rt.directory.Unregister(reg)
			return nil, err
		}
		s.catalog[id] = act
		s.mu.Unlock()
		go act.run()
		return act, nil
	}
}

// removeActivation drops a fully deactivated activation from the catalog.
func (s *Silo) removeActivation(a *activation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.catalog[a.id]; ok && cur == a {
		delete(s.catalog, a.id)
	}
}

// collector periodically deactivates idle activations, the analog of
// Orleans reclaiming grains that "have been standing idle for too long".
func (s *Silo) collector(every time.Duration) {
	defer close(s.collectorDone)
	t := s.rt.clk.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.collectorStop:
			return
		case <-t.C():
			s.collectIdle()
		}
	}
}

func (s *Silo) collectIdle() {
	now := s.rt.clk.Now()
	s.mu.Lock()
	for id, me := range s.moved {
		if now.After(me.until) {
			delete(s.moved, id)
		}
	}
	candidates := make([]*activation, 0)
	for _, act := range s.catalog {
		idleAfter := act.cfg.idleAfter
		if idleAfter == 0 {
			idleAfter = s.rt.cfg.IdleAfter
		}
		if act.idleFor(now) >= idleAfter {
			candidates = append(candidates, act)
		}
	}
	s.mu.Unlock()
	for _, act := range candidates {
		// closeIfEmpty loses the race to any in-flight message, which is
		// exactly right: traffic keeps an activation alive.
		act.box.closeIfEmpty()
	}
}

// crashAll abruptly kills every activation: mailboxes close, queued and
// in-flight work fails transient, and teardown skips hooks and state
// writes — in-memory state is lost exactly as a process crash would lose
// it. It does not wait for activation goroutines: a crash is not a drain.
func (s *Silo) crashAll() {
	s.mu.Lock()
	s.closing = true
	s.crashed = true
	acts := make([]*activation, 0, len(s.catalog))
	for _, a := range s.catalog {
		acts = append(acts, a)
	}
	s.mu.Unlock()
	for _, a := range acts {
		a.crashed.Store(true)
		a.box.close()
	}
}

// closedErr is what a delivery that reaches the silo after it began
// closing gets (s.mu held). A crash fails it transient, like the work it
// interrupted, so the caller re-routes to a live silo; a drain means the
// runtime is shutting down.
func (s *Silo) closedErr() error {
	if s.crashed {
		return fmt.Errorf("core: silo %s crashed: %w", s.name, ErrTransient)
	}
	return ErrShutdown
}

// drainAll synchronously deactivates every activation (shutdown path).
func (s *Silo) drainAll(ctx context.Context) error {
	s.mu.Lock()
	s.closing = true
	acts := make([]*activation, 0, len(s.catalog))
	for _, a := range s.catalog {
		acts = append(acts, a)
	}
	s.mu.Unlock()
	for _, a := range acts {
		a.box.close()
	}
	for _, a := range acts {
		select {
		case <-a.drained:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

func isNotFound(err error) bool { return errors.Is(err, kvstore.ErrNotFound) }
