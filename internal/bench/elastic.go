package bench

import (
	"context"
	"fmt"
	"time"

	"aodb/internal/core"
	"aodb/internal/kvstore"
	"aodb/internal/shm"
	"aodb/internal/siloboot"
)

// ElasticConfig describes an elastic scale-out run: a gossip cluster
// that starts small and grows one silo at a time while write-through
// clients keep hammering it, with every acknowledged write audited at
// the end. This is Ablation H's harness — the in-process twin of
// scripts/scale_smoke.sh, over real TCP transports.
type ElasticConfig struct {
	// StartSilos and EndSilos bound the growth (defaults 2 → 8).
	StartSilos int
	EndSilos   int
	// Replicas is the state replication factor (default 3, clamped to
	// the live ring while the cluster is still smaller).
	Replicas int
	// Ledgers and Clients shape the acked-write audit load (defaults
	// 32 / 8). Every client write is retried until acknowledged; only
	// acknowledged sequence numbers join the audit set.
	Ledgers int
	Clients int
	// Sensors adds the paper's 98/1/1 SHM mix on top of the ledger load
	// (0 = off). The sf8 demo drives 16,800/scale sensors here.
	Sensors int
	// JoinEvery is the pause between silo joins (default 2s) — also the
	// per-phase measurement window for throughput-vs-silo-count.
	JoinEvery time.Duration
	// Settle keeps the load running after the last join (default 3s), so
	// the final phase measures the fully grown cluster.
	Settle time.Duration
	// OpTimeout bounds one client write attempt (default 2s).
	OpTimeout time.Duration
	Seed      int64
}

func (c *ElasticConfig) fill() {
	if c.StartSilos <= 0 {
		c.StartSilos = 2
	}
	if c.EndSilos < c.StartSilos {
		c.EndSilos = 8
	}
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.Ledgers <= 0 {
		c.Ledgers = 32
	}
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.JoinEvery <= 0 {
		c.JoinEvery = 2 * time.Second
	}
	if c.Settle <= 0 {
		c.Settle = 3 * time.Second
	}
	if c.OpTimeout <= 0 {
		c.OpTimeout = 2 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
}

// JoinStat records one silo's entry into the live cluster.
type JoinStat struct {
	Silo string
	// Converged is how long after the joiner's JoinCluster every member
	// (and the load client) saw the full new view.
	Converged time.Duration
}

// PhaseStat is one growth phase's throughput sample.
type PhaseStat struct {
	Silos    int
	Acked    int64
	Rate     float64 // acked ledger writes per second in this phase
	Duration time.Duration
}

// ElasticResult reports what an elastic scale-out run did and, above
// all, whether it lost anything: LostWrites and Unclassified must be
// empty.
type ElasticResult struct {
	SoakResult

	Joins  []JoinStat
	Phases []PhaseStat

	// Cluster-wide counters summed over every silo's registry.
	MigrationsOut, MigrationsIn, MigrationsForced int64
	MovesDone, MovesFailed                        int64
	FencedWrites                                  int64

	SHMOk, SHMErrors int64
}

// RunElastic grows a live gossip cluster from StartSilos to EndSilos
// under sustained write-through load and audits that no acknowledged
// write was lost to the churn. Every silo is a full siloboot process
// image — TCP transport, SWIM agent, rebalancer, replicated state over
// its own in-memory store — and the load enters through an observer
// client whose placement view follows the gossip, exactly like shmload.
// The error return is for harness failures; the verdict lives in the
// result.
func RunElastic(ctx context.Context, cfg ElasticConfig) (ElasticResult, error) {
	var res ElasticResult
	cfg.fill()

	names := make([]string, cfg.EndSilos)
	for i := range names {
		names[i] = fmt.Sprintf("silo-%d", i+1)
	}
	initial := ""
	for i := 0; i < cfg.StartSilos; i++ {
		if i > 0 {
			initial += ","
		}
		initial += names[i]
	}

	var nodes []*siloboot.Node
	defer func() {
		for i := len(nodes) - 1; i >= 0; i-- {
			stopNode(nodes[i])
		}
	}()

	start := func(name, silos, seeds string) (*siloboot.Node, error) {
		kv, err := kvstore.Open(kvstore.Options{})
		if err != nil {
			return nil, err
		}
		node, err := siloboot.Start(siloboot.Options{
			Name:           name,
			Listen:         "127.0.0.1:0",
			Silos:          silos,
			Peers:          seeds,
			Gossip:         true,
			Seeds:          seeds,
			Rebalance:      true,
			RebalanceEvery: time.Second,
			Store:          kv,
			Replicas:       cfg.Replicas,
		})
		if err != nil {
			kv.Close()
			return nil, err
		}
		if err := registerLedger(node.Runtime); err != nil {
			return nil, err
		}
		if cfg.Sensors > 0 {
			// Registers the SHM actor kinds so this silo can host them.
			if _, err := shm.NewPlatform(node.Runtime, shm.Options{Persist: core.PersistOnDeactivate}); err != nil {
				return nil, err
			}
		}
		if _, err := node.Runtime.AddSilo(name, nil); err != nil {
			return nil, err
		}
		if err := node.JoinCluster(); err != nil {
			return nil, err
		}
		nodes = append(nodes, node)
		return node, nil
	}

	first, err := start(names[0], initial, "")
	if err != nil {
		return res, err
	}
	seedPair := names[0] + "=" + first.TCP.Addr()
	for i := 1; i < cfg.StartSilos; i++ {
		if _, err := start(names[i], initial, seedPair); err != nil {
			return res, err
		}
	}

	// The load client: an observer — never a member, never hosts actors,
	// but its placement view follows the gossip so new silos take load
	// the moment they join.
	client, err := siloboot.Start(siloboot.Options{
		Name:   "loadgen",
		Listen: "127.0.0.1:0",
		Silos:  initial,
		Peers:  seedPair,
		Gossip: true,
		Seeds:  seedPair,
	})
	if err != nil {
		return res, err
	}
	defer stopNode(client)
	if err := registerLedger(client.Runtime); err != nil {
		return res, err
	}
	var platform *shm.Platform
	if cfg.Sensors > 0 {
		if platform, err = shm.NewPlatform(client.Runtime, shm.Options{}); err != nil {
			return res, err
		}
	}
	if err := client.JoinCluster(); err != nil {
		return res, err
	}

	// Wait out the replica stores' rebuilding gates: the cluster serves
	// once a probe read round-trips.
	load := &ledgerLoad{rt: client.Runtime, ledgers: cfg.Ledgers, opTimeout: cfg.OpTimeout}
	probe := core.ID{Kind: "Ledger", Key: "probe"}
	if _, err := load.callUntil(ctx, probe, ledgerSeqs{}, time.Now().Add(30*time.Second)); err != nil {
		return res, fmt.Errorf("bench: cluster never became ready: %w", err)
	}

	// Optional SHM mix on top, driven for the whole growth window.
	loadCtx, stopLoad := context.WithCancel(ctx)
	defer stopLoad()
	rec := NewRecorder()
	var shmDone <-chan struct{}
	if platform != nil {
		total := cfg.JoinEvery*time.Duration(cfg.EndSilos-cfg.StartSilos) + cfg.Settle
		// stopLoad ends the drive; its own duration only bounds it.
		if shmDone, err = driveSHM(loadCtx, platform, cfg.Sensors, total+30*time.Second, cfg.OpTimeout, cfg.Seed, rec); err != nil {
			return res, err
		}
	}

	// Ledger clients: unthrottled write-through load, the audit set.
	waitClients := load.start(loadCtx, cfg.Clients)

	// Growth loop: one join per phase, each phase a throughput sample.
	phaseStart := time.Now()
	phaseAcked := load.nAcked.Load()
	endPhase := func(silos int) {
		d := time.Since(phaseStart)
		a := load.nAcked.Load() - phaseAcked
		res.Phases = append(res.Phases, PhaseStat{
			Silos: silos, Acked: a, Rate: float64(a) / d.Seconds(), Duration: d,
		})
		phaseStart, phaseAcked = time.Now(), load.nAcked.Load()
	}
	for n := cfg.StartSilos + 1; n <= cfg.EndSilos; n++ {
		select {
		case <-ctx.Done():
			return res, ctx.Err()
		case <-time.After(cfg.JoinEvery):
		}
		endPhase(n - 1)
		joiner := names[n-1]
		joinStart := time.Now()
		if _, err := start(joiner, joiner, seedPair); err != nil {
			return res, fmt.Errorf("bench: joining %s: %w", joiner, err)
		}
		// Convergence: every member and the client see the full view.
		deadline := time.Now().Add(30 * time.Second)
		for {
			all := true
			for _, node := range nodes {
				if len(node.Gossip.View()) != n {
					all = false
					break
				}
			}
			if all && len(client.Gossip.View()) == n {
				break
			}
			if time.Now().After(deadline) {
				return res, fmt.Errorf("bench: view never converged on %d silos", n)
			}
			time.Sleep(20 * time.Millisecond)
		}
		res.Joins = append(res.Joins, JoinStat{Silo: joiner, Converged: time.Since(joinStart)})
	}
	select {
	case <-ctx.Done():
		return res, ctx.Err()
	case <-time.After(cfg.Settle):
	}
	endPhase(cfg.EndSilos)

	stopLoad()
	waitClients()
	if shmDone != nil {
		<-shmDone
	}
	res.SHMOk = rec.Completed(ReqInsert) + rec.Completed(ReqLive) + rec.Completed(ReqRaw)
	res.SHMErrors = rec.Errors()

	// Audit: read every ledger back through the client and check each
	// acked sequence survived the growth.
	if res.SoakResult, err = load.audit(ctx, time.Now()); err != nil {
		return res, err
	}

	// Cluster-wide counters: summed over every silo's own registry.
	for _, node := range nodes {
		c := node.Registry.Counters()
		res.MigrationsOut += c["core.migrations.out"]
		res.MigrationsIn += c["core.migrations.in"]
		res.MigrationsForced += c["core.migrations.forced"]
		res.FencedWrites += c["core.stale_writes_fenced"]
		res.MovesDone += c["rebalance.moves.done"]
		res.MovesFailed += c["rebalance.moves.failed"]
	}
	return res, nil
}

// stopNode shuts a booted node down gracefully: runtime, storage, then
// its transport.
func stopNode(node *siloboot.Node) {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	_ = node.Runtime.Shutdown(ctx)
	_ = node.Drain(ctx)
	_ = node.TCP.Close()
}
