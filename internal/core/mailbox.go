package core

import (
	"context"
	"sync"
	"time"

	"aodb/internal/clock"
	"aodb/internal/telemetry"
)

// envelope is one queued message for an activation.
type envelope struct {
	ctx   context.Context
	msg   any
	reply chan turnResult // nil for one-way sends
	chain []string        // synchronous call chain, for cycle detection
	timer bool            // timer ticks do not refresh the idle clock

	// Tracing context, populated only while the runtime's tracer is
	// enabled (zero otherwise, costing nothing).
	trace      telemetry.SpanContext
	enqueuedAt time.Time // when the message entered the mailbox (sampled only)
	remote     bool      // arrived over a cross-silo or external hop

	// hlc is the sender's hybrid-logical-clock stamp, populated only
	// while the runtime's flight journal is enabled (zero otherwise).
	hlc clock.HLC
}

type turnResult struct {
	val any
	err error
}

// replyCells recycles the one-shot reply channels of request/response
// deliveries. Every envelope that carries a cell is answered exactly
// once (by its turn or by env.fail). deliver returns a cell to the pool
// only after receiving that one reply; a caller whose ctx fires first
// abandons its cell to the GC, so a late reply never lands in a cell
// that a later call is waiting on.
var replyCells = sync.Pool{New: func() any { return make(chan turnResult, 1) }}

// putReplyCell returns an empty cell to the pool; nil (a one-way
// delivery) is ignored.
func putReplyCell(c chan turnResult) {
	if c != nil {
		replyCells.Put(c)
	}
}

// mailbox is an unbounded FIFO queue with a cooperative close protocol.
// It is unbounded on purpose: per-actor queues in Orleans are unbounded
// too, and backpressure in this runtime comes from the silo's capacity
// limiter. An unbounded queue is also what lets the latency-percentile
// experiments exhibit honest queueing delay instead of tail-dropping.
type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	// ring holds the queue: n envelopes starting at head, wrapping. It
	// grows by doubling, so push and pop are O(1) however deep the
	// backlog gets.
	ring   []envelope
	head   int
	n      int
	closed bool
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// push enqueues env, returning false if the mailbox has been closed (the
// activation is deactivating and the caller must re-resolve the actor).
func (m *mailbox) push(env envelope) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	if m.n == len(m.ring) {
		m.grow()
	}
	m.ring[(m.head+m.n)%len(m.ring)] = env
	m.n++
	m.cond.Signal()
	return true
}

// pop dequeues the next envelope, blocking while the mailbox is open and
// empty. It returns ok=false once the mailbox is closed and drained.
func (m *mailbox) pop() (envelope, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.n == 0 && !m.closed {
		m.cond.Wait()
	}
	if m.n == 0 {
		return envelope{}, false
	}
	env := m.ring[m.head]
	m.ring[m.head] = envelope{} // drop references for the GC
	m.head = (m.head + 1) % len(m.ring)
	m.n--
	return env, true
}

// grow doubles the ring, unwrapping the queue to start at index 0.
func (m *mailbox) grow() {
	next := make([]envelope, max(1, 2*len(m.ring)))
	for i := 0; i < m.n; i++ {
		next[i] = m.ring[(m.head+i)%len(m.ring)]
	}
	m.ring, m.head = next, 0
}

// closeIfEmpty atomically closes the mailbox when it holds no messages,
// returning whether it closed. The idle collector uses this so that a
// message racing in keeps the activation alive.
func (m *mailbox) closeIfEmpty() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return true
	}
	if m.n > 0 {
		return false
	}
	m.closed = true
	m.cond.Broadcast()
	return true
}

// close closes the mailbox unconditionally; queued envelopes will still be
// drained by pop. Used at runtime shutdown.
func (m *mailbox) close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.cond.Broadcast()
}

// depth reports the number of queued messages, for introspection gauges.
func (m *mailbox) depth() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.n
}

// empty reports whether the queue is currently drained.
func (m *mailbox) empty() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.n == 0
}
