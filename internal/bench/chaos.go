package bench

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"aodb/internal/cluster"
	"aodb/internal/core"
	"aodb/internal/faults"
	"aodb/internal/kvstore"
	"aodb/internal/metrics"
	"aodb/internal/replication"
	"aodb/internal/shm"
	"aodb/internal/transport"
)

// ChaosConfig describes one chaos soak: a stream of acknowledged ledger
// writes, optionally under sustained SHM load, while silos crash and
// restart and the fault injector drops/duplicates/delays messages, fails
// storage writes, and panics actor turns. The run's invariant is that
// every acknowledged write survives and every client-visible error is
// classified.
//
// With N > 0 actor state is quorum-replicated across per-silo stores,
// which adds a second fault axis: seeded storage wipes that destroy one
// replica's entire disk. The soak then runs a strict quorum (every ring
// member is a silo of the soak), so every write ack is a real home-set
// ack and any two W>N/2 quorums intersect; sloppy-quorum stand-ins
// (which trade that intersection for availability) are exercised by the
// replication package's own tests, not by this invariant check. See
// DESIGN.md, "Replication".
type ChaosConfig struct {
	// Silos in the cluster (default 3); one at a time is crashed and later
	// restarted.
	Silos int
	// N, R, W configure replicated state: N = 0 keeps all state in one
	// shared store; N >= 1 runs a quorum coordinator over per-silo
	// replica stores (N capped at Silos; R and W default to majorities).
	N, R, W int
	// Ledgers is how many ledger actors the acked writes spread over
	// (default 8); Clients is the number of concurrent writers (default 8).
	Ledgers int
	Clients int
	// Sensors sizes the background 98/1/1 SHM load (0 disables it).
	Sensors int
	// Duration is the chaos window (default 5s); after it the injector is
	// disabled, crashed silos restart, and the surviving state is audited.
	Duration time.Duration
	// CrashEvery is the silo-kill cadence (default Duration/4);
	// RestartAfter is the outage length before the victim rejoins
	// (default CrashEvery/2).
	CrashEvery   time.Duration
	RestartAfter time.Duration
	// WipeEvery (N >= 1 only) is how often the wipe loop consults the
	// seeded WipeDecision for a random replica (default Duration/4). A
	// wipe only proceeds when every silo is up and the previous wipe's
	// restoration sweep has completed, so at most one replica is ever
	// rebuilding — with W>=2 durable home acks, that leaves at least one
	// intact copy of every acknowledged write at all times.
	WipeEvery time.Duration
	// OpTimeout bounds one client write attempt (default 2s).
	OpTimeout time.Duration
	// Faults configures the injector; its Seed defaults to Seed.
	Faults faults.Config
	Seed   int64
	// StoreDir, when non-empty, backs state with disk; with N >= 1 it is
	// required: each silo's replica store lives in its own subdirectory
	// (that is what a wipe destroys), and the coordinator's hint queue
	// lives beside them (never wiped — it models the coordinator's own
	// disk, not a replica's). Durable additionally makes every
	// acknowledged state write fsynced (WAL group commit), so the "no
	// acked write lost" invariant is checked against real durability
	// instead of a memory-only store.
	StoreDir string
	Durable  bool
}

func (c *ChaosConfig) fill() error {
	if c.Silos <= 0 {
		c.Silos = 3
	}
	if c.N > 0 {
		if c.StoreDir == "" {
			return errors.New("bench: replicated soak needs StoreDir (wipes destroy real directories)")
		}
		if c.N > c.Silos {
			c.N = c.Silos
		}
		if c.R <= 0 {
			c.R = c.N/2 + 1
		}
		if c.W <= 0 {
			c.W = c.N/2 + 1
		}
	}
	if c.Ledgers <= 0 {
		c.Ledgers = 8
	}
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.CrashEvery <= 0 {
		c.CrashEvery = c.Duration / 4
	}
	if c.RestartAfter <= 0 || c.RestartAfter >= c.CrashEvery {
		c.RestartAfter = c.CrashEvery / 2
	}
	if c.WipeEvery <= 0 {
		c.WipeEvery = c.Duration / 4
	}
	if c.OpTimeout <= 0 {
		c.OpTimeout = 2 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Faults.Seed == 0 {
		c.Faults.Seed = c.Seed
	}
	return nil
}

// ChaosResult reports what a soak survived.
type ChaosResult struct {
	SoakResult
	Crashes  int
	Restarts int
	Wipes    int // replicas whose storage was destroyed and rebuilt
	InjectedDrops, InjectedDups, InjectedDelays,
	InjectedKVErrs, InjectedPanics uint64
	CallRetries  int64 // runtime-internal transparent retries
	SHMCompleted int64
	SHMErrors    int64
	// Replication counters (zero when N = 0).
	HintsRecorded, HintsReplayed uint64
	ReadRepairs, DivergentKeys   uint64
	BreakerTrips                 bool // informational: did any circuit open
}

// chaosView tracks which silos the harness believes are up; the crash
// loop maintains it. Layered under cluster.FilteredView it keeps
// placement away from silos with open circuit breakers.
type chaosView struct {
	mu sync.Mutex
	up map[string]bool
}

func (v *chaosView) set(name string, alive bool) {
	v.mu.Lock()
	v.up[name] = alive
	v.mu.Unlock()
}

func (v *chaosView) isUp(name string) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.up[name]
}

func (v *chaosView) allUp() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, alive := range v.up {
		if !alive {
			return false
		}
	}
	return true
}

func (v *chaosView) View() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	names := make([]string, 0, len(v.up))
	for n, alive := range v.up {
		if alive {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// replica is one silo's wipeable storage: the harness swaps the whole
// stack (kvstore, table, replica store) when the disk is wiped.
type replica struct {
	name string
	dir  string

	mu     sync.Mutex
	store  *kvstore.Store
	rstore *replication.Store
}

func (r *replica) close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.store.Close()
}

// RunChaos executes one chaos soak and audits the aftermath. The error
// return is for harness failures (bad config, population errors); the
// pass/fail verdict for the run itself is in the result: LostWrites and
// Unclassified must come back empty.
func RunChaos(ctx context.Context, cfg ChaosConfig) (ChaosResult, error) {
	var res ChaosResult
	if err := cfg.fill(); err != nil {
		return res, err
	}
	reg := metrics.NewRegistry()
	inj := faults.New(cfg.Faults)
	// Setup (silo creation, population) runs fault-free; the injector is
	// enabled only for the chaos window itself.
	inj.SetEnabled(false)
	siloNames := make([]string, cfg.Silos)
	for i := range siloNames {
		siloNames[i] = fmt.Sprintf("silo-%d", i+1)
	}

	// Transport stack, innermost out: in-process delivery, then message
	// faults, then per-silo circuit breakers.
	local := transport.NewLocal(nil, nil)
	breaker := transport.NewBreaker(inj.WrapTransport(local), transport.BreakerOptions{})
	view := &chaosView{up: make(map[string]bool)}
	panicHook := inj.PanicHook()
	rtCfg := core.Config{
		Transport: breaker,
		View:      cluster.NewFilteredView(view, breaker.Open),
		// Hold activations hot; chaos churn comes from crashes, not the
		// idle collector.
		IdleAfter:    time.Hour,
		CollectEvery: time.Hour,
		BeforeTurn:   func(id core.ID, msg any) { panicHook(id.String()) },
		Metrics:      reg,
	}

	var (
		store    *kvstore.Store
		svc      *replication.Service
		coord    *replication.Coordinator
		replicas []*replica
		reopen   func(r *replica, rebuilding bool) error
	)
	if cfg.N == 0 {
		var err error
		if store, err = kvstore.Open(kvstore.Options{Dir: cfg.StoreDir, Durable: cfg.Durable}); err != nil {
			return res, err
		}
		defer store.Close()
		store.SetWriteFault(inj.KVWriteFault())
		rtCfg.Store = store
	} else {
		ring, err := replication.NewRing(siloNames)
		if err != nil {
			return res, err
		}
		// Per-silo replica stores, each on its own wipeable directory,
		// all hosted behind one service so replication RPCs ride the same
		// breaker(faults(local)) stack as actor traffic: a crashed silo's
		// replica is unreachable exactly while the silo is down.
		svc = replication.NewService()
		reopen = func(r *replica, rebuilding bool) error {
			st, err := kvstore.Open(kvstore.Options{Dir: r.dir, Durable: cfg.Durable})
			if err != nil {
				return err
			}
			st.SetWriteFault(inj.KVWriteFault())
			tab, err := st.EnsureTable("grains", kvstore.Throughput{})
			if err != nil {
				st.Close()
				return err
			}
			rstore, err := replication.NewStore(replication.StoreConfig{
				Silo: r.name, Table: tab, Ring: ring, N: cfg.N, Metrics: reg,
			})
			if err != nil {
				st.Close()
				return err
			}
			// A store reopened over a wiped directory must not answer
			// reads until restoration declares it caught up: its "not
			// found"s would count as read-quorum answers and can defeat
			// quorum intersection.
			rstore.SetRebuilding(rebuilding)
			r.mu.Lock()
			r.store, r.rstore = st, rstore
			r.mu.Unlock()
			svc.Host(r.name, rstore)
			return nil
		}
		for _, name := range siloNames {
			r := &replica{name: name, dir: filepath.Join(cfg.StoreDir, name)}
			if err := reopen(r, false); err != nil {
				return res, err
			}
			defer r.close()
			replicas = append(replicas, r)
		}
		coord, err = replication.NewCoordinator(replication.Config{
			Ring:      ring,
			N:         cfg.N,
			R:         cfg.R,
			W:         cfg.W,
			Transport: breaker,
			Alive:     view.isUp,
			HintDir:   filepath.Join(cfg.StoreDir, "hints"),
			Metrics:   reg,
		})
		if err != nil {
			return res, err
		}
		defer coord.Close(context.Background())
		rtCfg.States = coord
	}

	rt, err := core.New(rtCfg)
	if err != nil {
		return res, err
	}
	defer func() {
		shCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = rt.Shutdown(shCtx)
	}()
	if svc != nil {
		if err := rt.RegisterService(replication.TargetKind, svc.Handle); err != nil {
			return res, err
		}
	}
	if err := registerLedger(rt); err != nil {
		return res, err
	}
	for _, name := range siloNames {
		if _, err := rt.AddSilo(name, nil); err != nil {
			return res, err
		}
		view.set(name, true)
	}

	// Background 98/1/1 SHM load, errors tolerated but counted.
	rec := NewRecorder()
	var shmDone <-chan struct{}
	if cfg.Sensors > 0 {
		platform, err := shm.NewPlatform(rt, shm.Options{})
		if err != nil {
			return res, err
		}
		if shmDone, err = driveSHM(ctx, platform, cfg.Sensors, cfg.Duration, cfg.OpTimeout, cfg.Seed, rec); err != nil {
			return res, err
		}
	}

	// Chaos window opens: faults fire from here until the audit.
	inj.SetEnabled(true)
	chaosCtx, stopChaos := context.WithTimeout(ctx, cfg.Duration)
	defer stopChaos()

	// Crash loop: one victim at a time, killed abruptly and restarted
	// after an outage window. A replica's disk survives a crash — only a
	// wipe destroys it.
	crashDone := make(chan struct{})
	go func() {
		defer close(crashDone)
		rng := rand.New(rand.NewSource(cfg.Seed))
		ticker := time.NewTicker(cfg.CrashEvery)
		defer ticker.Stop()
		for {
			select {
			case <-chaosCtx.Done():
				return
			case <-ticker.C:
			}
			victim := siloNames[rng.Intn(len(siloNames))]
			if err := rt.CrashSilo(victim); err != nil {
				continue // already down from a previous iteration
			}
			view.set(victim, false)
			res.Crashes++
			select {
			case <-chaosCtx.Done():
				return
			case <-time.After(cfg.RestartAfter):
			}
			if _, err := rt.AddSilo(victim, nil); err == nil {
				view.set(victim, true)
				res.Restarts++
			}
		}
	}()

	// Wipe loop: seeded total storage loss on one replica at a time. A
	// wipe closes the store, destroys the directory contents, reopens an
	// empty store, hot-swaps it into the service, then runs restoration
	// sweeps until a full pass finds nothing divergent — only then is the
	// next wipe eligible. In-flight replica RPCs during the swap fail
	// with kvstore.ErrClosed and count as ordinary replica failures
	// (hinted, retried); they never reach a client unclassified.
	wipeDone := make(chan struct{})
	go func() {
		defer close(wipeDone)
		if coord == nil {
			return
		}
		rng := rand.New(rand.NewSource(cfg.Seed + 1))
		ticker := time.NewTicker(cfg.WipeEvery)
		defer ticker.Stop()
		for {
			select {
			case <-chaosCtx.Done():
				return
			case <-ticker.C:
			}
			if !view.allUp() {
				continue // never overlap a wipe with a crash outage
			}
			victim := replicas[rng.Intn(len(replicas))]
			if !inj.WipeDecision(victim.name) {
				continue
			}
			victim.mu.Lock()
			_ = victim.store.Close()
			err := faults.StorageWipe(victim.dir)
			victim.mu.Unlock()
			if err != nil {
				return // harness failure; audit will surface missing data
			}
			if err := reopen(victim, true); err != nil {
				return
			}
			res.Wipes++
			// Restoration: anti-entropy rebuilds the wiped replica from
			// its peers. Sweep until one full pass over the victim's
			// pairs is clean (or chaos ends first — the healing audit
			// finishes the job then), then release the read gate.
			for chaosCtx.Err() == nil {
				sctx, cancel := context.WithTimeout(context.Background(), cfg.OpTimeout)
				n, serr := coord.SweepOnce(sctx, victim.name, 64)
				cancel()
				if serr == nil && n == 0 && view.allUp() {
					victim.mu.Lock()
					victim.rstore.SetRebuilding(false)
					victim.mu.Unlock()
					break
				}
			}
		}
	}()

	// Clients: each write is retried until acknowledged or the chaos
	// window closes; only acknowledged writes join the audit set.
	load := &ledgerLoad{rt: rt, ledgers: cfg.Ledgers, opTimeout: cfg.OpTimeout}
	load.start(chaosCtx, cfg.Clients)()
	<-crashDone
	<-wipeDone
	if shmDone != nil {
		<-shmDone
	}

	// Heal: stop injecting, bring every silo back, drain the hint queue
	// and sweep replicas to convergence, then audit that each
	// acknowledged write survived somewhere durable.
	healStart := time.Now()
	inj.SetEnabled(false)
	if store != nil {
		store.SetWriteFault(nil)
	}
	for _, r := range replicas {
		r.mu.Lock()
		r.store.SetWriteFault(nil)
		// Chaos may have ended mid-restoration; with every silo up and
		// faults off, the healing sweeps below converge fully, so read
		// gates can lift now.
		r.rstore.SetRebuilding(false)
		r.mu.Unlock()
	}
	for _, name := range siloNames {
		if _, ok := rt.Silo(name); !ok {
			if _, err := rt.AddSilo(name, nil); err != nil {
				return res, fmt.Errorf("bench: healing restart of %s: %w", name, err)
			}
			res.Restarts++
		}
		view.set(name, true)
	}
	if coord != nil {
		if err := converge(ctx, coord, cfg.OpTimeout, healStart.Add(30*time.Second)); err != nil {
			return res, err
		}
	}
	if res.SoakResult, err = load.audit(ctx, healStart); err != nil {
		return res, err
	}

	res.InjectedDrops = inj.Fired("drop")
	res.InjectedDups = inj.Fired("dup")
	res.InjectedDelays = inj.Fired("delay")
	res.InjectedKVErrs = inj.Fired("kvwrite")
	res.InjectedPanics = inj.Fired("panic")
	res.CallRetries = reg.Counter("core.call_retries").Value()
	res.SHMCompleted = rec.Completed(ReqInsert) + rec.Completed(ReqLive) + rec.Completed(ReqRaw)
	res.SHMErrors = rec.Errors()
	res.HintsRecorded = uint64(reg.Counter("replication.hints.recorded").Value())
	res.HintsReplayed = uint64(reg.Counter("replication.hints.replayed").Value())
	res.ReadRepairs = uint64(reg.Counter("replication.readrepair.count").Value())
	res.DivergentKeys = uint64(reg.Counter("replication.antientropy.divergent_keys").Value())
	res.BreakerTrips = breaker.Trips() > 0
	return res, nil
}

// converge replays every pending hint, then sweeps anti-entropy until a
// full pass finds nothing divergent.
func converge(ctx context.Context, coord *replication.Coordinator, opTimeout time.Duration, deadline time.Time) error {
	for {
		_, remaining := coord.ReplayHints(ctx)
		if remaining == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: %d hints still pending after healing", remaining)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for {
		sctx, cancel := context.WithTimeout(ctx, opTimeout)
		n, serr := coord.SweepOnce(sctx, "", 64)
		cancel()
		if serr == nil && n == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: anti-entropy not converged after healing (divergent=%d, err=%v)", n, serr)
		}
	}
}

// driveSHM populates sensors on platform and drives the 98/1/1 mix into
// rec for duration or until ctx ends; the returned channel closes when
// the driver stops.
func driveSHM(ctx context.Context, platform *shm.Platform, sensors int, duration, timeout time.Duration, seed int64, rec *Recorder) (<-chan struct{}, error) {
	pop := shm.DefaultPopulation(sensors)
	keys, err := platform.Populate(ctx, pop)
	if err != nil {
		return nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = Drive(ctx, platform, LoadSpec{
			SensorKeys:     keys,
			Orgs:           pop.Orgs(),
			UserQueries:    true,
			RequestEvery:   time.Second,
			Warmup:         time.Millisecond, // measure ~everything
			Duration:       duration,
			RequestTimeout: timeout,
			Seed:           seed,
		}, rec)
	}()
	return done, nil
}
