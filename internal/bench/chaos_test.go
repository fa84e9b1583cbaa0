package bench

import (
	"context"
	"testing"
	"time"

	"aodb/internal/faults"
)

// soakFaults is the message, storage and panic fault mix of the soaks;
// kvWrite is the storage write-error rate.
func soakFaults(kvWrite float64) faults.Config {
	return faults.Config{
		Drop:     0.02,
		Dup:      0.01,
		Delay:    0.02,
		MaxDelay: 2 * time.Millisecond,
		KVWrite:  kvWrite,
		Panic:    0.005,
	}
}

// soak runs one chaos soak within timeout and fails t on a harness error
// or a broken invariant: a lost acknowledged write, an unclassified
// client error, or no acknowledged write at all.
func soak(t *testing.T, timeout time.Duration, cfg ChaosConfig) ChaosResult {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	res, err := RunChaos(ctx, cfg)
	if err != nil {
		t.Fatalf("chaos harness: %v", err)
	}
	if len(res.LostWrites) != 0 {
		t.Errorf("LOST %d acknowledged writes: %v", len(res.LostWrites), res.LostWrites)
	}
	if len(res.Unclassified) != 0 {
		t.Errorf("unclassified errors: %v", res.Unclassified)
	}
	if res.AckedWrites == 0 {
		t.Error("no writes were acknowledged; the soak exercised nothing")
	}
	t.Logf("acked=%d crashes=%d restarts=%d wipes=%d retriedOps=%d runtimeRetries=%d "+
		"injected(drop=%d dup=%d delay=%d kv=%d panic=%d) shm(ok=%d err=%d) "+
		"hints(recorded=%d replayed=%d) readRepairs=%d divergentKeys=%d breakerTrips=%v verify=%v",
		res.AckedWrites, res.Crashes, res.Restarts, res.Wipes, res.RetriedOps, res.CallRetries,
		res.InjectedDrops, res.InjectedDups, res.InjectedDelays, res.InjectedKVErrs,
		res.InjectedPanics, res.SHMCompleted, res.SHMErrors, res.HintsRecorded, res.HintsReplayed,
		res.ReadRepairs, res.DivergentKeys, res.BreakerTrips, res.VerifyElapsed)
	return res
}

// TestChaosSoak is the capstone robustness test: sustained SHM load and a
// stream of acknowledged writes while silos crash and restart, messages
// drop/duplicate/delay, storage writes fail, and actor turns panic. The
// run must finish with zero lost acknowledged writes, no unclassified
// errors, and no process crash (a panic escaping an activation would fail
// the test binary itself).
func TestChaosSoak(t *testing.T) {
	duration := 6 * time.Second
	if testing.Short() {
		duration = 2 * time.Second
	}
	res := soak(t, 2*time.Minute, ChaosConfig{
		Silos:      3,
		Ledgers:    8,
		Clients:    8,
		Sensors:    20,
		Duration:   duration,
		CrashEvery: duration / 5,
		OpTimeout:  2 * time.Second,
		Seed:       42,
		Faults:     soakFaults(0.02),
	})
	if res.Crashes == 0 {
		t.Error("no silo crashes happened; the soak exercised nothing")
	}
	// Unavailability is bounded: after the chaos window the cluster healed
	// fast enough for the full audit to complete well inside its budget.
	if res.VerifyElapsed > 30*time.Second {
		t.Errorf("healing audit took %v", res.VerifyElapsed)
	}
}

// TestChaosSoakDurable reruns the soak against a disk-backed store in
// durable mode: every acknowledged ledger write must now also be fsynced
// through the WAL group commit, and the invariant stays the same — zero
// acked writes lost, no unclassified errors.
func TestChaosSoakDurable(t *testing.T) {
	duration := 4 * time.Second
	if testing.Short() {
		duration = 2 * time.Second
	}
	soak(t, 2*time.Minute, ChaosConfig{
		Silos:      3,
		Ledgers:    8,
		Clients:    8,
		Sensors:    10,
		Duration:   duration,
		CrashEvery: duration / 4,
		OpTimeout:  2 * time.Second,
		Seed:       43,
		StoreDir:   t.TempDir(),
		Durable:    true,
		Faults:     soakFaults(0.02),
	})
}

// TestChaosCalmRunIsClean: with all fault probabilities at zero and no
// crashes, the harness itself introduces no errors or losses — so any
// failure in the soak above is attributable to the injected chaos.
func TestChaosCalmRunIsClean(t *testing.T) {
	res := soak(t, time.Minute, ChaosConfig{
		Silos:      2,
		Ledgers:    2,
		Clients:    2,
		Duration:   400 * time.Millisecond,
		CrashEvery: time.Hour, // never fires inside the window
		Seed:       7,
		Faults:     faults.Config{},
	})
	if res.RetriedOps != 0 {
		t.Fatalf("calm run needed %d client retries", res.RetriedOps)
	}
	if res.InjectedDrops+res.InjectedKVErrs+res.InjectedPanics != 0 {
		t.Fatal("calm run injected faults")
	}
}

// TestChaosSoakReplicated is the replication capstone: acknowledged
// ledger writes through an N=3/W=2/R=2 quorum coordinator while silos
// crash AND replica disks are wiped to nothing mid-flight. Every
// acknowledged write must survive (the surviving copies, hints, and
// anti-entropy must cover every wipe), and every client-visible error
// must be classified.
func TestChaosSoakReplicated(t *testing.T) {
	duration := 6 * time.Second
	if testing.Short() {
		duration = 2 * time.Second
	}
	fc := soakFaults(0.01)
	fc.Wipe = 0.75 // most wipe ticks fire (at most one rebuild at a time regardless)
	res := soak(t, 3*time.Minute, ChaosConfig{
		Silos:      3,
		N:          3,
		R:          2,
		W:          2,
		Ledgers:    8,
		Clients:    8,
		Duration:   duration,
		CrashEvery: duration / 5,
		WipeEvery:  duration / 6,
		OpTimeout:  2 * time.Second,
		Seed:       42,
		StoreDir:   t.TempDir(),
		Durable:    true,
		Faults:     fc,
	})
	if res.Crashes == 0 {
		t.Error("no silo crashes happened; the soak exercised nothing")
	}
	if res.Wipes == 0 {
		t.Error("no storage wipes happened; the soak never lost a replica disk")
	}
	if res.VerifyElapsed > 30*time.Second {
		t.Errorf("healing audit took %v", res.VerifyElapsed)
	}
}

// TestChaosReplicatedCalmRunIsClean: zero fault probabilities, no
// crashes, no wipes — the replicated harness itself introduces no
// errors, losses, or client retries, so soak failures are attributable
// to the injected chaos.
func TestChaosReplicatedCalmRunIsClean(t *testing.T) {
	res := soak(t, time.Minute, ChaosConfig{
		Silos:      3,
		N:          3,
		Ledgers:    2,
		Clients:    2,
		Duration:   400 * time.Millisecond,
		CrashEvery: time.Hour, // never fires inside the window
		WipeEvery:  time.Hour,
		Seed:       7,
		StoreDir:   t.TempDir(),
		Durable:    true,
	})
	if res.RetriedOps != 0 {
		t.Fatalf("calm run needed %d client retries", res.RetriedOps)
	}
	if res.Wipes != 0 {
		t.Fatalf("calm run wiped %d replicas", res.Wipes)
	}
}
