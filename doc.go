// Package aodb is an actor-oriented database (AODB) for IoT data
// platforms: a from-scratch Go reproduction of "Modeling and Building IoT
// Data Platforms with Actor-Oriented Databases" (Wang et al., EDBT 2019).
//
// The implementation lives under internal/:
//
//   - internal/core — the virtual-actor runtime (Orleans-style grains:
//     on-demand activation, single-threaded turns, idle collection,
//     persistent state, timers, reminders)
//   - internal/kvstore, internal/wal, internal/systemstore — the durable
//     storage substrate (DynamoDB/RDS analogs; the RDS analog keeps
//     reminders)
//   - internal/cluster, internal/gossip, internal/directory,
//     internal/placement, internal/transport, internal/netsim — the
//     distribution substrate (cluster defines the membership view;
//     gossip is the SWIM agent that provides it)
//   - internal/txn, internal/index, internal/query, internal/streams —
//     the database features layered on the actor runtime
//   - internal/shm — the structural health monitoring data platform
//     (the paper's implemented case study)
//   - internal/cattle — the beef cattle tracking and tracing platform
//     (both the Figure 3 actor model and the Figure 5 object model)
//   - internal/bench — the harness regenerating the paper's Figures 6-9
//     and the ablation experiments
//
// See README.md for a walkthrough, DESIGN.md for the system inventory,
// and EXPERIMENTS.md for paper-vs-measured results.
package aodb
