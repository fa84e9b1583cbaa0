// Package siloboot is the shared bring-up path for SHM cluster processes
// (shmserver silos and the shmload client). Both need the same stack —
// a TCP transport with static peers, consistent-hash placement keyed on
// the actor-id prefix, a static cluster view, optional tracing and
// hot-spot profiling, one metrics registry spanning runtime and wire
// path — and keeping that wiring in one place means a flag added here
// (or a default changed) behaves identically in every process.
package siloboot

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aodb/internal/cluster"
	"aodb/internal/core"
	"aodb/internal/gossip"
	"aodb/internal/journal"
	"aodb/internal/kvstore"
	"aodb/internal/metrics"
	"aodb/internal/placement"
	"aodb/internal/rebalance"
	"aodb/internal/replication"
	"aodb/internal/telemetry"
	"aodb/internal/transport"
)

// Options configures one cluster process.
type Options struct {
	// Name is this process's transport name; Listen its TCP bind address.
	Name   string
	Listen string
	// Silos is the comma-separated list of ALL silo names, identical on
	// every node so consistent-hash placement agrees cluster-wide.
	Silos string
	// Peers holds comma-separated name=addr pairs for the other processes.
	Peers string
	// TCP tunes the wire path (stripes, batching, dispatch pool).
	TCP transport.TCPOptions
	// Breaker wraps the transport in per-peer circuit breakers (servers
	// want this; a short-lived load client typically does not).
	Breaker bool

	// Gossip replaces the static membership view with a live SWIM gossip
	// agent: placement, the replication ring, and the directory track the
	// view as silos join, die, and refute. Silos listed in Silos form the
	// initial view; any process can join later via Seeds, so the cluster
	// grows elastically without restarting anything. A process whose Name
	// is not in Silos (the load client) runs the agent in observer mode —
	// it follows the view without becoming a member.
	Gossip bool
	// Seeds holds comma-separated name=addr pairs probed synchronously at
	// JoinCluster to merge into an existing cluster's view. Peers already
	// listed in Peers are routable anyway; Seeds only decides who gets the
	// join probes.
	Seeds string
	// Rebalance starts a background rebalancer (silos only): on membership
	// changes it live-migrates this silo's activations whose consistent-
	// hash home moved, and with -profile it sheds the hottest actors when
	// this silo's gossiped load runs far above the cluster mean.
	Rebalance bool
	// RebalanceEvery is the background planning period (0 = 10s);
	// membership events trigger immediate rounds regardless.
	RebalanceEvery time.Duration

	// Store, when non-nil, enables actor-state persistence.
	Store *kvstore.Store

	// Replicas enables replicated actor state when > 1 (and Store is
	// set): every state load and flush goes through an N/R/W quorum
	// coordinator over the cluster's replica stores, with hinted handoff
	// and a background anti-entropy sweep. On a storeless process (the
	// load client) the knob is inert — replication lives where state
	// does.
	Replicas int
	// ReadQuorum / WriteQuorum override R and W (0 = majority of
	// Replicas).
	ReadQuorum  int
	WriteQuorum int
	// HintDir persists the hinted-handoff queue (usually a subdirectory
	// of the store dir; it is the coordinator's disk, not a replica's).
	HintDir string
	// SweepEvery is the anti-entropy period (0 = 30s).
	SweepEvery time.Duration

	// Trace enables distributed tracing: sample every TraceSample-th
	// request (minimum 1), flag turns slower than SlowTurn, keep
	// TraceCapacity spans (0 = telemetry default).
	Trace         bool
	TraceSample   int
	SlowTurn      time.Duration
	TraceCapacity int

	// Profile enables the per-actor hot-spot profiler with a ProfileK-slot
	// heavy-hitter sketch (0 = default 64).
	Profile  bool
	ProfileK int

	// Journal, when set and enabled, is the cluster flight recorder: the
	// node stamps outgoing RPCs with HLC timestamps and records
	// membership transitions, migration phases, quorum outcomes, breaker
	// trips, slow turns, and panics into its ring. The command constructs
	// it (journal.New + SetEnabled) so it can also hook sources siloboot
	// never sees, like the kvstore's WAL flush stalls.
	Journal *journal.Journal
	// ObsAddr is the advertised observability endpoint (host:port of the
	// introspection listener), gossiped to peers so aggregators discover
	// scrape targets from the membership view alone.
	ObsAddr string

	// Metrics overrides the registry (nil allocates one shared by the
	// runtime and the transport).
	Metrics *metrics.Registry
}

// Node is a started cluster process: the runtime plus the pieces the
// command-level code still needs (shutdown, peers, introspection).
type Node struct {
	Name     string
	Registry *metrics.Registry
	TCP      *transport.TCP
	Breaker  *transport.Breaker // nil unless Options.Breaker
	Tracer   *telemetry.Tracer  // nil unless Options.Trace
	Profiler *telemetry.ActorProfiler
	Journal  *journal.Journal // nil unless Options.Journal
	Runtime  *core.Runtime
	// Gossip and Rebalancer are set by their Options flags; both start on
	// JoinCluster and stop in Drain.
	Gossip     *gossip.Agent
	Rebalancer *rebalance.Rebalancer
	// Coordinator and Sweeper are set when replication is on; the
	// command owns their shutdown (see Drain).
	Coordinator *replication.Coordinator
	Sweeper     *replication.Sweeper
	store       *kvstore.Store
	// bootstrapCancel stops the rebuilding-gate bootstrap loop.
	bootstrapCancel context.CancelFunc
}

// Start builds the transport, placement, and runtime. The caller still
// registers kinds (shm.NewPlatform) and, for silos, adds itself with
// AddSilo — a load client deliberately never does, so no actor places
// onto it.
func Start(opts Options) (*Node, error) {
	reg := opts.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	topts := opts.TCP
	if topts.Metrics == nil {
		topts.Metrics = reg
	}
	if jr := opts.Journal; jr != nil && topts.StampHLC == nil {
		// Frames leaving this process carry a causal timestamp; local
		// deliveries skip the mint (they share the journal's clock).
		topts.StampHLC = func() uint64 {
			if jr.Enabled() {
				return uint64(jr.Now())
			}
			return 0
		}
	}
	tcp, err := transport.NewTCPWithOptions(opts.Name, opts.Listen, topts)
	if err != nil {
		return nil, err
	}
	for _, pair := range SplitPairs(opts.Peers) {
		tcp.SetPeer(pair[0], pair[1])
	}
	var tr transport.Transport = tcp
	var breaker *transport.Breaker
	if opts.Breaker {
		bopts := transport.BreakerOptions{}
		if jr := opts.Journal; jr != nil {
			bopts.OnTrip = func(node string, failures int) {
				if jr.Enabled() {
					jr.Record(journal.BreakerTrip, "", 0,
						"node="+node+" failures="+strconv.Itoa(failures))
				}
			}
		}
		breaker = transport.NewBreaker(tcp, bopts)
		tr = breaker
	}

	var tracer *telemetry.Tracer
	if opts.Trace {
		sample := opts.TraceSample
		if sample < 1 {
			sample = 1
		}
		tracer = telemetry.New(telemetry.Config{
			SampleEvery: uint64(sample),
			SlowTurn:    opts.SlowTurn,
			Capacity:    opts.TraceCapacity,
		})
	}
	var profiler *telemetry.ActorProfiler
	if opts.Profile {
		profiler = telemetry.NewProfiler(telemetry.ProfilerConfig{K: opts.ProfileK})
	}

	// Membership: by default a static view over opts.Silos, identical on
	// every node. With Gossip on, the view is a live SWIM agent instead —
	// same Viewer/Provider surface, so nothing downstream branches on
	// which one it got. The agent's Load sampler needs the runtime, which
	// doesn't exist yet; it reads through an atomic holder filled in
	// after core.New.
	var rtHold atomic.Pointer[core.Runtime]
	var agent *gossip.Agent
	var view cluster.Viewer = cluster.NewStaticView(strings.Split(opts.Silos, ",")...)
	if opts.Gossip {
		name := opts.Name
		agent, err = gossip.New(gossip.Config{
			Name:      name,
			Addr:      tcp.Addr(),
			ObsAddr:   opts.ObsAddr,
			Transport: tr,
			Seeds:     SplitPairs(opts.Seeds),
			Observer:  !memberOf(name, opts.Silos),
			Load: func() int64 {
				rt := rtHold.Load()
				if rt == nil {
					return 0
				}
				if s, ok := rt.Silo(name); ok {
					return int64(s.Activations())
				}
				return 0
			},
			OnPeer:  tcp.SetPeer,
			Metrics: reg,
		})
		if err != nil {
			return nil, err
		}
		view = agent
	}

	// Replicated state: this process hosts its own replica store locally
	// (the N=1 fast path never touches the transport) and reaches peer
	// replicas through the same breaker-wrapped transport as actor
	// traffic. The coordinator becomes the runtime's state store, and
	// storage-dead silos are vetoed from placement alongside open-circuit
	// ones.
	var coord *replication.Coordinator
	var sweeper *replication.Sweeper
	var svc *replication.Service
	var rstore *replication.Store
	if opts.Replicas > 1 && opts.Store != nil {
		ring, err := replication.NewRing(strings.Split(opts.Silos, ","))
		if err != nil {
			return nil, err
		}
		tab, err := opts.Store.EnsureTable("grains", kvstore.Throughput{})
		if err != nil {
			return nil, err
		}
		rstore, err = replication.NewStore(replication.StoreConfig{
			Silo: opts.Name, Table: tab, Ring: ring, N: opts.Replicas, Metrics: reg,
		})
		if err != nil {
			return nil, err
		}
		svc = replication.NewService()
		svc.UseJournal(opts.Journal)
		svc.Host(opts.Name, rstore)
		coord, err = replication.NewCoordinator(replication.Config{
			Ring:      ring,
			N:         opts.Replicas,
			R:         opts.ReadQuorum,
			W:         opts.WriteQuorum,
			Transport: tr,
			Sender:    opts.Name,
			Local:     map[string]*replication.Store{opts.Name: rstore},
			HintDir:   opts.HintDir,
			Metrics:   reg,
			Journal:   opts.Journal,
		})
		if err != nil {
			return nil, err
		}
		view = cluster.NewFilteredView(view, coord.Unhealthy)
	} else if opts.Replicas > 1 && opts.Store == nil && memberOf(opts.Name, opts.Silos) {
		// A process that is itself one of the cluster's silos cannot
		// replicate without somewhere to keep its replica; a storeless
		// load client merely passing the shared flag set through is fine.
		return nil, errors.New("siloboot: -replicas on a silo needs -store")
	}

	hash := placement.NewConsistentHash()
	hash.PrefixSep = '@'
	cfg := core.Config{
		Transport: tr,
		Placement: hash,
		Store:     opts.Store,
		View:      view,
		Tracer:    tracer,
		Profiler:  profiler,
		Journal:   opts.Journal,
		Metrics:   reg,
	}
	if coord != nil {
		cfg.States = coord
	}
	rt, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	rtHold.Store(rt)

	var rebalancer *rebalance.Rebalancer
	if opts.Rebalance && memberOf(opts.Name, opts.Silos) {
		var loads func() map[string]int64
		if agent != nil {
			loads = agent.Loads
		}
		rebalancer, err = rebalance.New(rebalance.Config{
			Runtime:  rt,
			Silo:     opts.Name,
			View:     view,
			Strategy: hash,
			Profiler: profiler,
			Loads:    loads,
			Every:    opts.RebalanceEvery,
			Metrics:  reg,
		})
		if err != nil {
			return nil, err
		}
	}

	if agent != nil {
		if err := rt.RegisterService(gossip.TargetKind, agent.Handle); err != nil {
			return nil, err
		}
		// Membership events drive the rest of the stack: a death evicts
		// the silo's directory registrations (so its actors fail over on
		// the next call), any view change re-derives the replication ring
		// (the coordinator keeps the superseded ring's quorum veto through
		// a transition window), and the rebalancer re-plans immediately.
		var ringMu sync.Mutex
		agent.Subscribe(func(e cluster.Event) {
			if jr := opts.Journal; jr.Enabled() {
				switch e.Status {
				case cluster.StatusActive:
					jr.Record(journal.MemberJoin, "", 0, "member="+e.Silo)
				case cluster.StatusSuspect:
					jr.Record(journal.MemberSuspect, "", 0, "member="+e.Silo)
				case cluster.StatusDead:
					// MemberDead is anomalous: recording it also freezes a
					// ring capture, so the survivors persist the window
					// around a crash even though the crashed silo cannot.
					jr.Record(journal.MemberDead, "", 0, "member="+e.Silo)
				}
			}
			if e.Status == cluster.StatusDead {
				rt.Directory().EvictSilo(e.Silo)
			}
			if coord != nil {
				ringMu.Lock()
				if members := agent.View(); len(members) > 0 {
					if next, rerr := coord.Ring().WithMembers(members); rerr == nil {
						coord.UpdateRing(next)
						rstore.UpdateRing(next)
					}
				}
				ringMu.Unlock()
			}
			if rebalancer != nil {
				rebalancer.Notify()
			}
		})
	}
	var bootstrapCancel context.CancelFunc
	if coord != nil {
		if err := rt.RegisterService(replication.TargetKind, svc.Handle); err != nil {
			return nil, err
		}
		sweeper = replication.NewSweeper(coord, opts.SweepEvery, opts.Name, 0)
		sweeper.Start()
		// Gate this silo's replica reads until one anti-entropy pass over
		// its peer pairs comes back clean. A replica restarted onto wiped
		// (or stale) storage must not answer quorum reads — its absences
		// are meaningless and can defeat quorum intersection (see
		// replication.ErrRebuilding). A fresh or caught-up store clears
		// the gate on the first clean pass, typically well under a second
		// once peers are reachable; a wiped one stays gated until its
		// peers push everything back. Quorum reads meanwhile fail
		// transient and retry, or are served by the ungated replicas.
		rstore.SetRebuilding(true)
		var bctx context.Context
		bctx, bootstrapCancel = context.WithCancel(context.Background())
		go func() {
			for bctx.Err() == nil {
				sctx, cancel := context.WithTimeout(bctx, 5*time.Second)
				n, serr := coord.SweepOnce(sctx, opts.Name, 0)
				cancel()
				if serr == nil && n == 0 {
					rstore.SetRebuilding(false)
					return
				}
				select {
				case <-bctx.Done():
				case <-time.After(200 * time.Millisecond):
				}
			}
		}()
	}
	return &Node{
		Name:            opts.Name,
		Registry:        reg,
		TCP:             tcp,
		Breaker:         breaker,
		Tracer:          tracer,
		Profiler:        profiler,
		Journal:         opts.Journal,
		Runtime:         rt,
		Gossip:          agent,
		Rebalancer:      rebalancer,
		Coordinator:     coord,
		Sweeper:         sweeper,
		store:           opts.Store,
		bootstrapCancel: bootstrapCancel,
	}, nil
}

// JoinCluster starts the gossip agent (probing Seeds synchronously, so
// the first view is already merged when it returns) and the background
// rebalancer. Call it after kinds are registered and AddSilo has run:
// the join announcement is what makes peers route actors here, so the
// silo must be ready to serve before it goes out. A no-op without
// -gossip / -rebalance.
func (n *Node) JoinCluster() error {
	if n.Gossip != nil {
		if err := n.Gossip.Start(); err != nil {
			return err
		}
	}
	if n.Rebalancer != nil {
		n.Rebalancer.Start()
	}
	return nil
}

// Drain is the graceful storage shutdown, run after Runtime.Shutdown has
// deactivated (and flushed) every actor: stop the anti-entropy sweeper,
// replay and sync the hint queue so no hinted write is stranded in
// memory, and put a final WAL sync barrier on the store — every
// acknowledged write is on disk before the process exits.
func (n *Node) Drain(ctx context.Context) error {
	if n.bootstrapCancel != nil {
		n.bootstrapCancel()
	}
	if n.Rebalancer != nil {
		n.Rebalancer.Stop()
	}
	if n.Gossip != nil {
		// Graceful departure: announce Left (peers drop us without a
		// suspicion round) and stop probing.
		n.Gossip.Leave(ctx)
		n.Gossip.Stop()
	}
	if n.Sweeper != nil {
		n.Sweeper.Stop()
	}
	var firstErr error
	if n.Coordinator != nil {
		if err := n.Coordinator.Close(ctx); err != nil {
			firstErr = err
		}
	}
	if n.store != nil {
		if err := n.store.Sync(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Introspection assembles the node's observability endpoint, wiring in
// whichever sources the node has. pprof opts into /debug/pprof/.
func (n *Node) Introspection(pprof bool) *telemetry.Introspection {
	in := &telemetry.Introspection{
		Registry: n.Registry,
		Tracer:   n.Tracer,
		Runtime:  n.Runtime,
		Profiler: n.Profiler,
		Journal:  n.Journal,
		Name:     n.Name,
		Pprof:    pprof,
	}
	if n.Breaker != nil {
		in.Breakers = n.Breaker.States
	}
	if ag := n.Gossip; ag != nil {
		// /members lets an observer process (shmtop, shmtrace) discover
		// every silo's scrape endpoint and liveness from any one seed.
		in.Members = func() []telemetry.MemberInfo {
			members := ag.Members()
			out := make([]telemetry.MemberInfo, 0, len(members))
			for _, m := range members {
				out = append(out, telemetry.MemberInfo{
					Name:    m.Name,
					ObsAddr: m.ObsAddr,
					State:   m.State.String(),
				})
			}
			return out
		}
	}
	return in
}

// memberOf reports whether name is one of the comma-separated silos.
func memberOf(name, silos string) bool {
	for _, s := range strings.Split(silos, ",") {
		if strings.TrimSpace(s) == name {
			return true
		}
	}
	return false
}

// SplitPairs parses "name=addr,name=addr" peer lists, skipping empty and
// malformed segments.
func SplitPairs(s string) [][2]string {
	var out [][2]string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if name, addr, ok := strings.Cut(part, "="); ok {
			out = append(out, [2]string{name, addr})
		}
	}
	return out
}
