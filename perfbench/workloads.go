package main

import "time"

// Settings shared by every workload.
const (
	// points is readings per channel per insert (the paper: 10).
	points = 10
	// warmup is the closed-loop warm-up after each set-up; it is not
	// part of setup_s.
	warmup = 500 * time.Millisecond
	// closedWorkers is the fixed outstanding-request count of the
	// closed-loop capacity phase, which takes closedShare of the run in
	// closedSlices equal parts.
	closedWorkers = 32
	closedShare   = 0.4
	closedSlices  = 6
	// insertWorkers and queryWorkers bound the open loop's outstanding
	// requests.
	insertWorkers = 16
	queryWorkers  = 4
	// timeout bounds one request.
	timeout = 10 * time.Second
)

// workload is one named configuration of the benchmark. Sizes are for
// the benchmark itself; tests run the same code scaled down.
type workload struct {
	Name string
	// Sensors is the population (100 per organization); Window the
	// per-channel point cap, prefilled during set-up.
	Sensors int
	Window  int
	// WriteThrough persists channel state on every insert.
	WriteThrough bool
	// Setups is how many times set-up runs; setup_s is their median.
	Setups int
	// Rate is the open-loop 98/1/1 rate in requests per second: about a
	// fifth of the workload's closed-loop capacity on a 2-vCPU host, well
	// below the rate at which the backlog starts to grow.
	Rate float64
	// OrgPeriod, when set, sends the open loop's inserts and queries to
	// one organization at a time, for OrgPeriod each, in a seeded order:
	// every other organization's actors idle past IdleAfter, are
	// collected, and reload their state when their turn comes back.
	OrgPeriod time.Duration
	// IdleAfter and CollectEvery drive activation collection.
	IdleAfter    time.Duration
	CollectEvery time.Duration
	deploy       func(w *workload, pr *probes, dir string) (*deployment, error)
}

func workloads() map[string]workload {
	return map[string]workload{
		// The paper's 2,000 sensors in one process with every window full:
		// actor turns, mailboxes, the live-query fan-out, window eviction
		// and GC do the work; no wire, no disk. Windows hold 512 points,
		// not the default 4,096: at 4,096 the ~730 MB heap is collected
		// zero or one time per run, and that alone decides the run's tail.
		"shm-steady": {
			Name: "shm-steady", Sensors: 2000, Window: 512, Setups: 3,
			Rate: 3500, deploy: deploySteady,
		},
		// Two silos and a client over loopback TCP: every insert is one
		// wire call, every live query 1 + ~210.
		"shm-tcp": {
			Name: "shm-tcp", Sensors: 600, Window: 256, Setups: 3,
			Rate: 2400, deploy: deployTCP,
		},
		// Three silos with durable quorum-replicated state and
		// write-through channels. The open loop serves one of the six
		// organizations at a time, two seconds each, so each organization
		// idles ten seconds of every twelve: its sensor, channel and
		// organization actors are collected after five, and the first
		// insert or query of its next turn reloads them by quorum read.
		"state-churn": {
			Name: "state-churn", Sensors: 600, Window: 64, WriteThrough: true, Setups: 3,
			Rate: 440, OrgPeriod: 2 * time.Second,
			IdleAfter: 5 * time.Second, CollectEvery: 250 * time.Millisecond,
			deploy: deployChurn,
		},
	}
}

// scaled shrinks a workload for the tests: a tenth of the rate, twenty
// sensors (one organization) and one set-up.
func (w workload) scaled() workload {
	w.Sensors = 20
	w.Window = 32
	w.Rate /= 10
	w.Setups = 1
	return w
}
