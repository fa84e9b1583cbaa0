package main

import (
	"context"
	"encoding/json"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"aodb/internal/core"
	aodbmetrics "aodb/internal/metrics"
	"aodb/internal/placement"
	"aodb/internal/transport"
)

// The traced run measures every layer from outside the program: it wraps
// the transport, state store and placement strategy it hands to the
// runtime, reads the program's own metrics registries, and reads the Go
// runtime's metrics. The untraced run passes the unwrapped
// implementations.

// probe times the calls crossing one layer boundary while tracing is on.
type probe struct {
	on    *atomic.Bool
	calls atomic.Int64
	bytes atomic.Int64
	lat   *aodbmetrics.Histogram
}

func newProbe(on *atomic.Bool) *probe {
	return &probe{on: on, lat: aodbmetrics.NewHistogram()}
}

// start returns the call's start time, or the zero time when tracing is
// off (one atomic load).
func (p *probe) start() time.Time {
	if !p.on.Load() {
		return time.Time{}
	}
	return time.Now()
}

func (p *probe) done(start time.Time, bytes int) {
	if start.IsZero() {
		return
	}
	p.lat.RecordDuration(time.Since(start))
	p.calls.Add(1)
	p.bytes.Add(int64(bytes))
}

// probes is the set of boundary probes of one deployment, sharing one
// on/off switch.
type probes struct {
	on                            atomic.Bool
	transport, load, store, place *probe
}

func newProbes() *probes {
	p := &probes{}
	p.transport = newProbe(&p.on)
	p.load = newProbe(&p.on)
	p.store = newProbe(&p.on)
	p.place = newProbe(&p.on)
	return p
}

// timedTransport wraps a transport.Transport.
type timedTransport struct {
	inner transport.Transport
	p     *probe
}

func (t *timedTransport) Register(node string, h transport.Handler) error {
	return t.inner.Register(node, h)
}

func (t *timedTransport) Call(ctx context.Context, node string, req transport.Request) (any, error) {
	s := t.p.start()
	v, err := t.inner.Call(ctx, node, req)
	t.p.done(s, 0)
	return v, err
}

func (t *timedTransport) Send(ctx context.Context, node string, req transport.Request) error {
	s := t.p.start()
	err := t.inner.Send(ctx, node, req)
	t.p.done(s, 0)
	return err
}

func (t *timedTransport) Close() error { return t.inner.Close() }

// Deregister forwards to the inner transport, which the runtime needs to
// crash a silo.
func (t *timedTransport) Deregister(node string) {
	if d, ok := t.inner.(transport.Deregisterer); ok {
		d.Deregister(node)
	}
}

// timedStates wraps a core.StateStore.
type timedStates struct {
	inner       core.StateStore
	load, store *probe
}

func (t *timedStates) Load(ctx context.Context, key string) ([]byte, int64, error) {
	s := t.load.start()
	data, v, err := t.inner.Load(ctx, key)
	t.load.done(s, len(data))
	return data, v, err
}

func (t *timedStates) Store(ctx context.Context, key string, data []byte, version int64) (int64, error) {
	s := t.store.start()
	v, err := t.inner.Store(ctx, key, data, version)
	t.store.done(s, len(data))
	return v, err
}

// timedPlacement wraps a placement.Strategy.
type timedPlacement struct {
	inner placement.Strategy
	p     *probe
}

func (t *timedPlacement) Place(actor, caller string, silos []string) (string, error) {
	s := t.p.start()
	silo, err := t.inner.Place(actor, caller, silos)
	t.p.done(s, 0)
	return silo, err
}

func (t *timedPlacement) Name() string { return t.inner.Name() }

// wrapTransport, wrapStates and wrapPlacement return the inner
// implementation unchanged when the run is untraced (probes == nil).
func (p *probes) wrapTransport(tr transport.Transport) transport.Transport {
	if p == nil {
		return tr
	}
	return &timedTransport{inner: tr, p: p.transport}
}

func (p *probes) wrapStates(st core.StateStore) core.StateStore {
	if p == nil {
		return st
	}
	return &timedStates{inner: st, load: p.load, store: p.store}
}

func (p *probes) wrapPlacement(s placement.Strategy) placement.Strategy {
	if p == nil {
		return s
	}
	return &timedPlacement{inner: s, p: p.place}
}

// probeSnap is a probe's state at one instant.
type probeSnap struct {
	calls, bytes int64
	lat          aodbmetrics.Snapshot
}

func (p *probe) snap() probeSnap {
	return probeSnap{calls: p.calls.Load(), bytes: p.bytes.Load(), lat: p.lat.Snapshot()}
}

// regSnap sums the counters and merges the histograms of several
// registries at one instant.
type regSnap struct {
	counters map[string]int64
	hists    map[string]aodbmetrics.Snapshot
}

func snapRegistries(regs []*aodbmetrics.Registry) regSnap {
	s := regSnap{counters: map[string]int64{}, hists: map[string]aodbmetrics.Snapshot{}}
	for _, r := range regs {
		for k, v := range r.Counters() {
			s.counters[k] += v
		}
		for k, h := range r.Histograms() {
			s.hists[k] = s.hists[k].Merge(h)
		}
	}
	return s
}

// gaugeSum sums one gauge across registries.
func gaugeSum(regs []*aodbmetrics.Registry, name string) int64 {
	var sum int64
	for _, r := range regs {
		sum += r.Gauges()[name]
	}
	return sum
}

// histJSON mirrors the sparse wire form of an aodb histogram snapshot.
type histJSON struct {
	Layout  string     `json:"layout"`
	Count   int64      `json:"count"`
	Sum     int64      `json:"sum"`
	Min     int64      `json:"min"`
	Max     int64      `json:"max"`
	Buckets [][2]int64 `json:"buckets,omitempty"`
}

// histDelta returns the values recorded between two snapshots of one
// histogram, computed on the snapshots' public wire form. The delta's
// bounds are [0, after.Max], which only clamps percentiles, never shifts
// them.
func histDelta(before, after aodbmetrics.Snapshot) aodbmetrics.Snapshot {
	var b, a histJSON
	if !decodeHist(before, &b) || !decodeHist(after, &a) {
		return aodbmetrics.Snapshot{}
	}
	prev := map[int64]int64{}
	for _, x := range b.Buckets {
		prev[x[0]] = x[1]
	}
	d := histJSON{Layout: a.Layout, Count: a.Count - b.Count, Sum: a.Sum - b.Sum, Max: a.Max}
	for _, x := range a.Buckets {
		if n := x[1] - prev[x[0]]; n > 0 {
			d.Buckets = append(d.Buckets, [2]int64{x[0], n})
		}
	}
	if d.Count <= 0 {
		return aodbmetrics.Snapshot{}
	}
	raw, err := json.Marshal(d)
	if err != nil {
		return aodbmetrics.Snapshot{}
	}
	var out aodbmetrics.Snapshot
	if err := out.UnmarshalJSON(raw); err != nil {
		return aodbmetrics.Snapshot{}
	}
	return out
}

func decodeHist(s aodbmetrics.Snapshot, into *histJSON) bool {
	raw, err := s.MarshalJSON()
	return err == nil && json.Unmarshal(raw, into) == nil
}

// goSnap is the Go runtime's counters at one instant.
type goSnap struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU, totalCPU                    float64
}

var goSampleNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGo() goSnap {
	samples := make([]metrics.Sample, len(goSampleNames))
	for i, n := range goSampleNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	u := func(i int) uint64 {
		if samples[i].Value.Kind() == metrics.KindUint64 {
			return samples[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if samples[i].Value.Kind() == metrics.KindFloat64 {
			return samples[i].Value.Float64()
		}
		return 0
	}
	return goSnap{
		allocBytes: u(0), allocObjects: u(1), gcCycles: u(2),
		gcCPU: f(3), totalCPU: f(4),
	}
}
