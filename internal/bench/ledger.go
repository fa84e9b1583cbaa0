package bench

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"aodb/internal/codec"
	"aodb/internal/core"
	"aodb/internal/faults"
	"aodb/internal/replication"
)

// ledger messages. The ledger is a write-through idempotent seq-set: a
// put is acknowledged only after its state write is durable, and
// re-sending an acked seq is a no-op — which is what makes at-least-once
// retries safe to ack exactly once.
type ledgerPut struct{ Seq uint64 }
type ledgerSeqs struct{}

type ledgerState struct {
	Seqs map[string]bool
}

func init() {
	// The elastic soak runs over real TCP, so the ledger's messages must
	// be wire-registered.
	codec.Register(ledgerPut{})
	codec.Register(ledgerSeqs{})
	codec.Register(ledgerState{})
	codec.Register([]uint64(nil))
}

type ledgerActor struct{ state ledgerState }

func (l *ledgerActor) State() any { return &l.state }

func (l *ledgerActor) Receive(ctx *core.Context, msg any) (any, error) {
	switch m := msg.(type) {
	case ledgerPut:
		if l.state.Seqs == nil {
			l.state.Seqs = make(map[string]bool)
		}
		key := strconv.FormatUint(m.Seq, 10)
		if l.state.Seqs[key] {
			return true, nil // duplicate of an acked write
		}
		l.state.Seqs[key] = true
		if err := ctx.WriteState(); err != nil {
			// Not durable: roll back so a later duplicate isn't acked for
			// free, and report the failure instead of an ack.
			delete(l.state.Seqs, key)
			return nil, err
		}
		return true, nil
	case ledgerSeqs:
		out := make([]uint64, 0, len(l.state.Seqs))
		for k := range l.state.Seqs {
			n, err := strconv.ParseUint(k, 10, 64)
			if err != nil {
				return nil, err
			}
			out = append(out, n)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out, nil
	default:
		return nil, fmt.Errorf("ledger: unknown message %T", msg)
	}
}

func registerLedger(rt *core.Runtime) error {
	return rt.RegisterKind("Ledger", func() core.Actor { return &ledgerActor{} },
		core.WithPersistence(core.PersistExplicit))
}

// classified reports whether err is inside the soaks' error taxonomy:
// transient runtime failures (retried; this includes a quorum that could
// not assemble), recovered actor panics, injected storage errors, the
// client's own attempt deadline, and a replica answering before its
// rebuilding gate has lifted.
func classified(err error) bool {
	return core.Transient(err) ||
		errors.Is(err, core.ErrActorPanic) ||
		errors.Is(err, faults.ErrInjectedKVWrite) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, replication.ErrRebuilding)
}

// SoakResult is the verdict every soak shares: LostWrites and
// Unclassified must come back empty.
type SoakResult struct {
	AckedWrites  int      // writes acknowledged to clients during the run
	LostWrites   []uint64 // acked seqs missing after healing, sorted
	RetriedOps   int64    // client ops that needed more than one attempt
	Unclassified []string // errors outside the taxonomy (first 16)
	// VerifyElapsed is the healing-plus-audit time after the load stops.
	VerifyElapsed time.Duration
}

// Failed reports whether the run violated its invariants.
func (r SoakResult) Failed() error {
	if len(r.LostWrites) > 0 {
		return fmt.Errorf("bench: %d acked writes lost: %v", len(r.LostWrites), r.LostWrites)
	}
	if len(r.Unclassified) > 0 {
		return fmt.Errorf("bench: %d unclassified client errors (first: %s)", len(r.Unclassified), r.Unclassified[0])
	}
	return nil
}

// ledgerLoad is the acked-write workload: clients write increasing
// sequence numbers spread over a fixed set of ledger actors, retry each
// write until it is acknowledged, and remember only acknowledged seqs.
type ledgerLoad struct {
	rt        *core.Runtime
	ledgers   int
	opTimeout time.Duration

	seq     atomic.Uint64
	nAcked  atomic.Int64
	retried atomic.Int64
	mu      sync.Mutex
	acked   []uint64
	unclass []string
}

func (l *ledgerLoad) ledger(i uint64) core.ID {
	return core.ID{Kind: "Ledger", Key: fmt.Sprintf("L%d", i%uint64(l.ledgers))}
}

// start launches clients writers that run until ctx ends; the returned
// wait blocks until every writer has stopped.
func (l *ledgerLoad) start(ctx context.Context, clients int) (wait func()) {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				l.write(ctx)
			}
		}()
	}
	return wg.Wait
}

// write retries one new seq until it is acknowledged, ctx ends, or an
// unclassified error ends it.
func (l *ledgerLoad) write(ctx context.Context) {
	seq := l.seq.Add(1)
	id := l.ledger(seq)
	attempts := 0
	for ctx.Err() == nil {
		attempts++
		opCtx, cancel := context.WithTimeout(context.Background(), l.opTimeout)
		_, err := l.rt.Call(opCtx, id, ledgerPut{Seq: seq})
		cancel()
		if err == nil {
			l.mu.Lock()
			l.acked = append(l.acked, seq)
			l.mu.Unlock()
			l.nAcked.Add(1)
			break
		}
		if !classified(err) {
			l.mu.Lock()
			if len(l.unclass) < 16 {
				l.unclass = append(l.unclass, err.Error())
			}
			l.mu.Unlock()
			break
		}
	}
	if attempts > 1 {
		l.retried.Add(1)
	}
}

// audit reads every ledger back after the writers have stopped and the
// cluster has healed, and reports each acked seq that did not survive.
// healStart is when healing began: the audit shares its 30 s budget and
// VerifyElapsed counts from it.
//
// Each ledger is fenced before it is read: ledgerSeqs is a pure read, and
// reads are not version-checked, so a zombie activation (created before
// the last failover and never written through since) would answer from
// stale memory and misreport durable writes as lost. One write forces
// the version-conditional state put: a zombie fails the condition,
// self-deactivates, and the retried call reaches an activation hydrated
// from the store. The fence seq extends the client sequence, so it never
// collides with an audited write.
func (l *ledgerLoad) audit(ctx context.Context, healStart time.Time) (SoakResult, error) {
	res := SoakResult{
		AckedWrites:  len(l.acked),
		RetriedOps:   l.retried.Load(),
		Unclassified: l.unclass,
	}
	deadline := healStart.Add(30 * time.Second)
	survived := make(map[uint64]bool)
	for i := 0; i < l.ledgers; i++ {
		id := l.ledger(uint64(i))
		if _, err := l.callUntil(ctx, id, ledgerPut{Seq: l.seq.Add(1)}, deadline); err != nil {
			return res, fmt.Errorf("bench: ledger %s unwritable after healing: %w", id, err)
		}
		v, err := l.callUntil(ctx, id, ledgerSeqs{}, deadline)
		if err != nil {
			return res, fmt.Errorf("bench: ledger %s unreadable after healing: %w", id, err)
		}
		for _, s := range v.([]uint64) {
			survived[s] = true
		}
	}
	for _, s := range l.acked {
		if !survived[s] {
			res.LostWrites = append(res.LostWrites, s)
		}
	}
	sort.Slice(res.LostWrites, func(i, j int) bool { return res.LostWrites[i] < res.LostWrites[j] })
	res.VerifyElapsed = time.Since(healStart)
	return res, nil
}

func (l *ledgerLoad) callUntil(ctx context.Context, id core.ID, msg any, deadline time.Time) (any, error) {
	for {
		opCtx, cancel := context.WithTimeout(ctx, l.opTimeout)
		v, err := l.rt.Call(opCtx, id, msg)
		cancel()
		if err == nil {
			return v, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(10 * time.Millisecond)
	}
}
