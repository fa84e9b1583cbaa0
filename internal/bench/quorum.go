package bench

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"aodb/internal/faults"
	"aodb/internal/kvstore"
	"aodb/internal/replication"
	"aodb/internal/transport"
)

// QuorumLatencyConfig configures one point of the N/R/W latency
// ablation: durable quorum puts through a coordinator over in-process
// silos, against a bare single-table durable put baseline.
type QuorumLatencyConfig struct {
	// Silos and N, R, W shape the ring and quorums (defaults 3, N=Silos,
	// majorities; N=1 exercises the Local-map fast path).
	Silos   int
	N, R, W int
	// Ops is how many sequential puts to measure (default 2000) over
	// Keys distinct keys (default 64) of ValueSize bytes (default 128).
	Ops       int
	Keys      int
	ValueSize int
	// Dir backs the stores with disk; required when Durable.
	Dir     string
	Durable bool
}

// QuorumLatencyResult is one measured ablation point.
type QuorumLatencyResult struct {
	N, R, W, Ops        int
	Mean, P50, P95, P99 time.Duration
	// Baseline is the same op count of bare durable table puts on one
	// store — the group-committed put the N=1 coordinator must stay within
	// 10% of.
	BaselineMean, BaselineP50 time.Duration
}

// RunQuorumLatency measures one N/R/W point. The first silo's store is
// wired through the coordinator's Local map (the production fast path:
// a silo is always local to itself); the rest are reached through an
// in-process transport, so N>1 points pay real dispatch per extra
// replica.
func RunQuorumLatency(ctx context.Context, cfg QuorumLatencyConfig) (QuorumLatencyResult, error) {
	var out QuorumLatencyResult
	if cfg.Silos <= 0 {
		cfg.Silos = 3
	}
	if cfg.N <= 0 || cfg.N > cfg.Silos {
		cfg.N = cfg.Silos
	}
	if cfg.R <= 0 {
		cfg.R = cfg.N/2 + 1
	}
	if cfg.W <= 0 {
		cfg.W = cfg.N/2 + 1
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 2000
	}
	if cfg.Keys <= 0 {
		cfg.Keys = 64
	}
	if cfg.ValueSize <= 0 {
		cfg.ValueSize = 128
	}
	if cfg.Durable && cfg.Dir == "" {
		return out, errors.New("bench: durable quorum latency needs Dir")
	}
	out.N, out.R, out.W, out.Ops = cfg.N, cfg.R, cfg.W, cfg.Ops

	names := make([]string, cfg.Silos)
	for i := range names {
		names[i] = fmt.Sprintf("silo-%d", i+1)
	}
	ring, err := replication.NewRing(names)
	if err != nil {
		return out, err
	}
	svc := replication.NewService()
	locals := make(map[string]*replication.Store)
	tr := transport.NewLocal(nil, nil)
	defer tr.Close()
	for i, name := range names {
		dir := ""
		if cfg.Dir != "" {
			dir = filepath.Join(cfg.Dir, name)
		}
		st, err := kvstore.Open(kvstore.Options{Dir: dir, Durable: cfg.Durable})
		if err != nil {
			return out, err
		}
		defer st.Close()
		tab, err := st.EnsureTable("grains", kvstore.Throughput{})
		if err != nil {
			return out, err
		}
		rstore, err := replication.NewStore(replication.StoreConfig{
			Silo: name, Table: tab, Ring: ring, N: cfg.N,
		})
		if err != nil {
			return out, err
		}
		svc.Host(name, rstore)
		if i == 0 {
			locals[name] = rstore
		} else {
			silo := name
			if err := tr.Register(silo, func(hctx context.Context, req transport.Request) (any, error) {
				return svc.Handle(hctx, silo, req)
			}); err != nil {
				return out, err
			}
		}
	}
	coord, err := replication.NewCoordinator(replication.Config{
		Ring: ring, N: cfg.N, R: cfg.R, W: cfg.W,
		Transport: tr, Sender: names[0], Local: locals,
	})
	if err != nil {
		return out, err
	}
	defer coord.Close(context.Background())

	value := make([]byte, cfg.ValueSize)
	for i := range value {
		value[i] = byte(i)
	}
	versions := make(map[string]int64, cfg.Keys)
	key := func(i int) string { return fmt.Sprintf("Sensor/%04d", i%cfg.Keys) }
	// Warm every key so the measured loop is steady-state puts.
	for i := 0; i < cfg.Keys; i++ {
		v, err := coord.Store(ctx, key(i), value, versions[key(i)])
		if err != nil {
			return out, err
		}
		versions[key(i)] = v
	}
	// Baseline: bare durable puts on a standalone table, same op count.
	bdir := ""
	if cfg.Dir != "" {
		bdir = filepath.Join(cfg.Dir, "baseline")
	}
	bst, err := kvstore.Open(kvstore.Options{Dir: bdir, Durable: cfg.Durable})
	if err != nil {
		return out, err
	}
	defer bst.Close()
	btab, err := bst.EnsureTable("grains", kvstore.Throughput{})
	if err != nil {
		return out, err
	}
	// Coordinator and baseline puts alternate in one loop, so drift in
	// the host's speed over the run lands on both sides alike, and which
	// of the two goes first alternates too: a durable put right after
	// another one's fsync costs a different amount than one after a pause.
	durs := make([]time.Duration, 0, cfg.Ops)
	bdurs := make([]time.Duration, 0, cfg.Ops)
	coordPut := func(k string) error {
		start := time.Now()
		v, err := coord.Store(ctx, k, value, versions[k])
		if err != nil {
			return err
		}
		durs = append(durs, time.Since(start))
		versions[k] = v
		return nil
	}
	basePut := func(k string) error {
		start := time.Now()
		if _, err := btab.Put(ctx, k, value); err != nil {
			return err
		}
		bdurs = append(bdurs, time.Since(start))
		return nil
	}
	for i := 0; i < cfg.Ops; i++ {
		first, second := coordPut, basePut
		if i%2 == 1 {
			first, second = basePut, coordPut
		}
		if err := first(key(i)); err != nil {
			return out, err
		}
		if err := second(key(i)); err != nil {
			return out, err
		}
	}
	out.Mean, out.P50, out.P95, out.P99 = latStats(durs)
	out.BaselineMean, out.BaselineP50, _, _ = latStats(bdurs)
	return out, nil
}

// QuorumAblationRow is one N/R/W configuration measured two ways: the
// steady-state durable-put latency through the coordinator, and what a
// storage-kill soak at that configuration actually lost.
type QuorumAblationRow struct {
	Latency QuorumLatencyResult
	Soak    ChaosResult
}

// QuorumAblation measures the N/R/W tradeoff: each configuration pays
// its quorum's latency and keeps (or loses) acknowledged writes under
// combined silo crashes and replica storage wipes accordingly. N=1 and
// W=1 are expected to lose writes when the only replica's disk dies —
// that is the row that justifies the others.
func QuorumAblation(ctx context.Context, dir string, duration time.Duration, points [][3]int) ([]QuorumAblationRow, error) {
	if duration <= 0 {
		duration = 3 * time.Second
	}
	if len(points) == 0 {
		points = [][3]int{{1, 1, 1}, {2, 1, 1}, {2, 2, 2}, {3, 1, 1}, {3, 2, 2}, {3, 3, 3}}
	}
	rows := make([]QuorumAblationRow, 0, len(points))
	for i, p := range points {
		n, r, w := p[0], p[1], p[2]
		lat, err := RunQuorumLatency(ctx, QuorumLatencyConfig{
			Silos: 3, N: n, R: r, W: w,
			Dir:     filepath.Join(dir, fmt.Sprintf("lat-%d", i)),
			Durable: true,
		})
		if err != nil {
			return rows, err
		}
		soak, err := RunChaos(ctx, ChaosConfig{
			Silos: 3, N: n, R: r, W: w,
			Duration: duration,
			Seed:     int64(100 + i),
			StoreDir: filepath.Join(dir, fmt.Sprintf("soak-%d", i)),
			Durable:  true,
			Faults: faults.Config{
				Drop: 0.01, KVWrite: 0.01, Wipe: 1, // every eligible wipe tick fires
			},
		})
		if err != nil {
			return rows, err
		}
		rows = append(rows, QuorumAblationRow{Latency: lat, Soak: soak})
	}
	return rows, nil
}

func latStats(durs []time.Duration) (mean, p50, p95, p99 time.Duration) {
	if len(durs) == 0 {
		return
	}
	sorted := make([]time.Duration, len(durs))
	copy(sorted, durs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	pct := func(p float64) time.Duration {
		idx := int(p * float64(len(sorted)-1))
		return sorted[idx]
	}
	return sum / time.Duration(len(sorted)), pct(0.50), pct(0.95), pct(0.99)
}
