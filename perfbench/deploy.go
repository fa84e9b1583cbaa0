package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"aodb/internal/cluster"
	"aodb/internal/core"
	"aodb/internal/kvstore"
	"aodb/internal/metrics"
	"aodb/internal/placement"
	"aodb/internal/replication"
	"aodb/internal/shm"
	"aodb/internal/siloboot"
	"aodb/internal/transport"
)

// deployment is one running SHM platform under test.
type deployment struct {
	plat *shm.Platform
	// regs are every metrics registry the program keeps: runtimes,
	// transports, stores, replication.
	regs []*metrics.Registry
	// stores and dirs are the durable replica stores (state-churn only).
	stores []*kvstore.Store
	dirs   []string
	ring   *replication.Ring
	// crash kills every silo without the graceful shutdown flush
	// (state-churn only); close releases everything else.
	crash func()
	close func()
	// desc describes the deployment for the report.
	desc string
}

func hashPlacement() *placement.ConsistentHash {
	h := placement.NewConsistentHash()
	h.PrefixSep = '@' // co-locate an organization's actor family
	return h
}

func shutdown(rt *core.Runtime) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = rt.Shutdown(ctx) // teardown after the measurement; nothing to report
}

// deploySteady boots one silo in process: no store, no capacity model,
// hash placement.
func deploySteady(_ *workload, pr *probes, _ string) (*deployment, error) {
	reg := metrics.NewRegistry()
	rt, err := core.New(core.Config{
		Transport:    pr.wrapTransport(transport.NewLocal(nil, nil)),
		Placement:    pr.wrapPlacement(hashPlacement()),
		IdleAfter:    time.Hour,
		CollectEvery: time.Hour,
		Metrics:      reg,
	})
	if err != nil {
		return nil, err
	}
	if _, err := rt.AddSilo("silo-1", nil); err != nil {
		shutdown(rt)
		return nil, err
	}
	plat, err := shm.NewPlatform(rt, shm.Options{})
	if err != nil {
		shutdown(rt)
		return nil, err
	}
	return &deployment{
		plat: plat, regs: []*metrics.Registry{reg}, close: func() { shutdown(rt) },
		desc: "deployment: one silo in process, in-process transport, no store",
	}, nil
}

// deployTCP boots two silos through siloboot, the shmserver stack, on
// loopback TCP, plus a load-client node that hosts no actors. The client
// is assembled like siloboot's storeless client so the benchmark can
// hand it a timed transport and placement; it opens one connection per
// silo and at most nproc in total.
func deployTCP(_ *workload, pr *probes, _ string) (*deployment, error) {
	names := []string{"silo-1", "silo-2"}
	dep := &deployment{}
	var nodes []*siloboot.Node
	var client *core.Runtime
	dep.close = func() {
		if client != nil {
			shutdown(client)
		}
		for _, n := range nodes {
			shutdown(n.Runtime)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_ = n.Drain(ctx) // storeless silos: nothing to flush
			cancel()
		}
	}
	fail := func(err error) (*deployment, error) {
		dep.close()
		return nil, err
	}
	for _, name := range names {
		n, err := siloboot.Start(siloboot.Options{
			Name:   name,
			Listen: "127.0.0.1:0",
			Silos:  strings.Join(names, ","),
		})
		if err != nil {
			return fail(err)
		}
		nodes = append(nodes, n)
		dep.regs = append(dep.regs, n.Registry)
		if _, err := shm.NewPlatform(n.Runtime, shm.Options{}); err != nil {
			return fail(err)
		}
		if _, err := n.Runtime.AddSilo(name, nil); err != nil {
			return fail(err)
		}
		if err := n.JoinCluster(); err != nil {
			return fail(err)
		}
	}
	for _, a := range nodes {
		for _, b := range nodes {
			if a != b {
				a.TCP.SetPeer(b.Name, b.TCP.Addr())
			}
		}
	}
	stripes := runtime.NumCPU() / len(names)
	if stripes < 1 {
		stripes = 1
	}
	reg := metrics.NewRegistry()
	tcp, err := transport.NewTCPWithOptions("client", "127.0.0.1:0",
		transport.TCPOptions{Stripes: stripes, Metrics: reg})
	if err != nil {
		return fail(err)
	}
	for _, n := range nodes {
		tcp.SetPeer(n.Name, n.TCP.Addr())
	}
	client, err = core.New(core.Config{
		Transport: pr.wrapTransport(tcp),
		Placement: pr.wrapPlacement(hashPlacement()),
		View:      cluster.NewStaticView(names...),
		Metrics:   reg,
	})
	if err != nil {
		_ = tcp.Close()
		return fail(err)
	}
	dep.regs = append(dep.regs, reg)
	dep.desc = fmt.Sprintf("deployment: 2 silos booted by siloboot on loopback TCP; client holds %d connection(s) per silo, %d in all (nproc %d)",
		stripes, stripes*len(names), runtime.NumCPU())
	dep.plat, err = shm.NewPlatform(client, shm.Options{})
	if err != nil {
		return fail(err)
	}
	return dep, nil
}

// deployChurn boots three silos over the in-process transport. Each silo
// has its own durable kvstore (fsync before ack, group commit) under
// dir, and an N=3/R=2/W=2 quorum coordinator is the runtime's state
// store. Idle activations are collected quickly so returning sensors
// reload their state by quorum read.
func deployChurn(w *workload, pr *probes, dir string) (*deployment, error) {
	names := []string{"silo-1", "silo-2", "silo-3"}
	dep := &deployment{}
	var rt *core.Runtime
	var coord *replication.Coordinator
	closeStores := func() {
		for _, st := range dep.stores {
			_ = st.Close() // after a crash: releases file handles only
		}
		dep.stores = nil
	}
	dep.crash = func() {
		if rt != nil {
			for _, n := range names {
				_ = rt.CrashSilo(n) // fails only for an unknown silo
			}
		}
	}
	dep.close = func() {
		dep.crash()
		if rt != nil {
			shutdown(rt)
		}
		if coord != nil {
			_ = coord.Close(context.Background())
		}
		closeStores()
	}
	fail := func(err error) (*deployment, error) {
		dep.close()
		return nil, err
	}
	ring, err := replication.NewRing(names)
	if err != nil {
		return nil, err
	}
	dep.ring = ring
	replReg := metrics.NewRegistry()
	svc := replication.NewService()
	for _, name := range names {
		sreg := metrics.NewRegistry()
		d := filepath.Join(dir, name)
		st, err := kvstore.Open(kvstore.Options{Dir: d, Durable: true, Metrics: sreg})
		if err != nil {
			return fail(err)
		}
		dep.stores = append(dep.stores, st)
		dep.dirs = append(dep.dirs, d)
		dep.regs = append(dep.regs, sreg)
		tab, err := st.EnsureTable("grains", kvstore.Throughput{})
		if err != nil {
			return fail(err)
		}
		rs, err := replication.NewStore(replication.StoreConfig{
			Silo: name, Table: tab, Ring: ring, N: len(names), Metrics: replReg,
		})
		if err != nil {
			return fail(err)
		}
		svc.Host(name, rs)
	}
	local := pr.wrapTransport(transport.NewLocal(nil, nil))
	coord, err = replication.NewCoordinator(replication.Config{
		Ring:      ring,
		N:         3,
		R:         2,
		W:         2,
		Transport: local,
		HintDir:   filepath.Join(dir, "hints"),
		Metrics:   replReg,
	})
	if err != nil {
		return fail(err)
	}
	reg := metrics.NewRegistry()
	dep.regs = append(dep.regs, reg, replReg)
	rt, err = core.New(core.Config{
		Transport:    local,
		States:       pr.wrapStates(coord),
		Placement:    pr.wrapPlacement(hashPlacement()),
		IdleAfter:    w.IdleAfter,
		CollectEvery: w.CollectEvery,
		Metrics:      reg,
	})
	if err != nil {
		return fail(err)
	}
	if err := rt.RegisterService(replication.TargetKind, svc.Handle); err != nil {
		return fail(err)
	}
	dep.plat, err = shm.NewPlatform(rt, shm.Options{Persist: core.PersistOnDeactivate})
	if err != nil {
		return fail(err)
	}
	for _, n := range names {
		if _, err := rt.AddSilo(n, nil); err != nil {
			return fail(err)
		}
	}
	dep.desc = fmt.Sprintf("deployment: 3 silos, in-process transport, durable kvstore per silo, N=3/R=2/W=2 quorum state store, idle collection after %s (checked every %s)",
		w.IdleAfter, w.CollectEvery)
	return dep, nil
}

// diskBytes sums the sizes of the regular files under dirs.
func diskBytes(dirs []string) (int64, error) {
	var total int64
	for _, d := range dirs {
		err := filepath.Walk(d, func(_ string, info os.FileInfo, err error) error {
			if err != nil {
				return err
			}
			if info.Mode().IsRegular() {
				total += info.Size()
			}
			return nil
		})
		if err != nil {
			return 0, fmt.Errorf("perfbench: sizing %s: %w", d, err)
		}
	}
	return total, nil
}

// liveStateBytes sums the value sizes held in every replica's state
// table.
func liveStateBytes(ctx context.Context, stores []*kvstore.Store) (int64, error) {
	var total int64
	for _, st := range stores {
		tab, err := st.Table("grains")
		if err != nil {
			return 0, err
		}
		if err := tab.Scan(ctx, "", func(it kvstore.Item) bool {
			total += int64(len(it.Value))
			return true
		}); err != nil {
			return 0, err
		}
	}
	return total, nil
}
