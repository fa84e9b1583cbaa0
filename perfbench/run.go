package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"aodb/internal/shm"
)

type runOptions struct {
	seed    int64
	seconds float64
	trace   bool
	dir     string
}

// setUp populates a fresh deployment and prefills every channel window.
func setUp(ctx context.Context, w *workload, dep *deployment, d *driver) error {
	for org := range d.pop.orgs {
		if err := dep.plat.CreateOrganization(ctx, shm.OrgKey(org), fmt.Sprintf("Organization %d", org)); err != nil {
			return fmt.Errorf("create org %d: %w", org, err)
		}
	}
	var errMu sync.Mutex
	var firstErr error
	keep := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	parallel(len(d.pop.sensors), 8, func(i int) {
		s := d.pop.sensors[i]
		if err := dep.plat.InstallSensor(ctx, shm.SensorSpec{
			Org:              shm.OrgKey(s.org),
			Key:              s.key,
			PhysicalChannels: len(s.phys),
			WithVirtual:      s.virt != "",
			WindowCap:        w.Window,
			WriteEveryBatch:  w.WriteThrough,
		}); err != nil {
			keep(fmt.Errorf("install %s: %w", s.key, err))
		}
	})
	if firstErr != nil {
		return firstErr
	}
	// One insert per sensor fills its windows to the cap.
	parallel(len(d.pop.sensors), 8, func(i int) {
		s := d.pop.sensors[i]
		at, per := s.batch(d.seed, w.Window)
		if err := dep.plat.Ingest(ctx, s.key, at, per); err != nil {
			keep(fmt.Errorf("prefill %s: %w", s.key, err))
			return
		}
		s.applied(per)
	})
	return firstErr
}

// warmUp runs the closed-loop mix for a fixed time after set-up, so caches
// fill and lazy set-up finishes before anything is timed.
func warmUp(ctx context.Context, d *driver) error {
	d.runClosed(ctx, closedWorkers, warmup, 1, nil)
	// Start every run's timed phases at the same point of the GC cycle.
	runtime.GC()
	return ctx.Err()
}

// run executes one benchmark run of workload w.
func run(ctx context.Context, w workload, o runOptions) (*result, error) {
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, err
	}
	res := &result{}
	res.note("workload: %s seed=%d seconds=%g trace=%v", w.Name, o.seed, o.seconds, o.trace)
	res.note("%s", hostFacts(o.dir))
	res.note("config: sensors=%d orgs=%d channels=%d window=%d points/insert/channel=%d write_through=%v",
		w.Sensors, (w.Sensors+sensorsPerOrg-1)/sensorsPerOrg, len(newPopulation(w.Sensors).channels),
		w.Window, points, w.WriteThrough)

	// Set up Setups times from scratch; the last deployment is measured.
	// setup_s times deployment, population and prefill, not the fixed
	// warm-up that follows.
	var (
		dep               *deployment
		d                 *driver
		pr                *probes
		setups            []float64
		attempted, failed int64
	)
	discard := func() {
		if dep == nil {
			return
		}
		attempted += d.attempted.Load()
		failed += d.failed.Load()
		dep.close()
		dep = nil
	}
	defer discard()
	for i := 0; i < w.Setups; i++ {
		discard()
		runtime.GC()
		if o.trace {
			pr = newProbes()
		}
		start := time.Now()
		var err error
		dep, err = w.deploy(&w, pr, filepath.Join(o.dir, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return nil, fmt.Errorf("deploy: %w", err)
		}
		d = &driver{plat: dep.plat, pop: newPopulation(w.Sensors), seed: o.seed}
		if err := setUp(ctx, &w, dep, d); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if err := warmUp(ctx, d); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	res.note("%s", dep.desc)
	if w.OrgPeriod > 0 {
		// An insert whose sensor sat idle past collection (plus a few
		// collector periods of slack) arrives at a collected activation.
		d.coldAfter = w.IdleAfter + 3*w.CollectEvery
	}

	// Timed phases: closed-loop capacity, then open-loop latency.
	total := time.Duration(o.seconds * float64(time.Second))
	closedDur := time.Duration(float64(total) * closedShare)
	openDur := total - closedDur
	var tr *tracer
	if o.trace {
		tr = startTracer(dep, pr)
	}
	// marks are the success counts at each probe switch: the traced
	// run's per-request ratios divide probe counts by the requests that
	// completed while the probes were on.
	var marks [][kindCount]int64
	// The untraced closed loop is cut into slices too: throughput is the
	// median slice's, so one slow stretch of the host does not decide it.
	slices, onSlice := closedSlices, func(int) {}
	if o.trace {
		// Alternate untraced and traced eighths to measure the probes'
		// own cost on the same deployment.
		slices, onSlice = 8, func(i int) {
			marks = append(marks, d.okCounts())
			pr.on.Store(i%2 == 1)
		}
	}
	okStart := d.okCounts()
	closed := d.runClosed(ctx, closedWorkers, closedDur, slices, onSlice)
	marks = append(marks, d.okCounts())
	if o.trace {
		pr.on.Store(true)
	}
	d.inflightMax.Store(0)
	// Like the closed loop, the latency phase starts right after a
	// collection, so every run meets the GC cycle at the same point.
	runtime.GC()
	open := d.runOpen(ctx, &w, openDur)
	marks = append(marks, d.okCounts())
	if o.trace {
		pr.on.Store(false)
	}
	var after *layerSnap
	if tr != nil {
		after = tr.stop()
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	heapMB := float64(mem.HeapAlloc) / (1 << 20)
	if ctx.Err() != nil {
		return nil, fmt.Errorf("timed phases: %w", ctx.Err())
	}

	// Correctness: state against the reference, then (state-churn)
	// durability across a crash.
	unverifiable, err := d.verify(ctx, w.Window, 64)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	var durable *durability
	if dep.crash != nil {
		if durable, err = checkDurable(ctx, dep, d, w.Window, after); err != nil {
			return nil, fmt.Errorf("durability: %w", err)
		}
	}
	nWrong, wrong := d.wrongAnswers()
	discard()
	res.attempted, res.failed = attempted, failed
	var why []string
	res.correct, why = verdict(nWrong, wrong, failed, unverifiable, durable)
	for _, msg := range why {
		res.note("WRONG: %s", msg)
	}

	// Report.
	var closedOK int64
	var closedSec, closedCPU float64
	perCPU := make([]float64, len(closed))
	for i, c := range closed {
		closedOK += c.completed
		closedSec += c.elapsed.Seconds()
		closedCPU += c.cpu
		if c.cpu > 0 {
			perCPU[i] = float64(c.completed) / c.cpu
		}
	}
	errRatio := 0.0
	if res.attempted > 0 {
		errRatio = float64(res.failed) / float64(res.attempted)
	}
	res.note("load: closed loop %d outstanding for %.2fs (%.2f CPU-s); open loop %.0f req/s for %.2fs, at most %d outstanding (%d insert + %d query workers)",
		closedWorkers, closedSec, closedCPU, w.Rate, open.elapsed.Seconds(),
		insertWorkers+queryWorkers, insertWorkers, queryWorkers)
	if w.OrgPeriod > 0 {
		norgs := len(d.pop.orgs)
		cold, warm := len(open.lat[kindCold]), len(open.lat[kindInsert])
		res.note("rotation: one of %d organizations at a time, %s each (each idle %s per %s cycle; collection after %s); cold inserts %d of %d (%.1f%%)",
			norgs, w.OrgPeriod, time.Duration(norgs-1)*w.OrgPeriod, time.Duration(norgs)*w.OrgPeriod,
			w.IdleAfter, cold, cold+warm, 100*float64(cold)/float64(max(cold+warm, 1)))
	}
	res.note("closed-loop slices (req/cpu-s): %.0f", perCPU)
	res.note("error_ratio %.6f ratio (%d failed of %d attempted, set-up warm-ups included)", errRatio, res.failed, res.attempted)
	res.note("setup_s runs: %v", setups)
	res.note("unverifiable sensors (a failed insert): %d", unverifiable)
	if durable != nil {
		res.note("durability: %d channels re-read by quorum after crash and reopen; sloppy writes %d, hints recorded %d",
			durable.channels, durable.sloppy, durable.hints)
	}
	for k := kind(0); k < kindCount; k++ {
		xs := open.lat[k]
		if len(xs) == 0 {
			continue
		}
		p := tailPercentile(len(xs))
		res.note("latency %-6s n=%d p50=%.3fms p99=%.3fms p%g=%.3fms max=%.3fms", kindNames[k], len(xs),
			ms(percentile(xs, 50)), ms(percentile(xs, 99)), p, ms(percentile(xs, p)), ms(percentile(xs, 100)))
	}

	if o.trace {
		var on, all [kindCount]int64
		// Traced intervals: the odd closed-loop slices, then the whole
		// open loop (marks[i] is taken as slice i starts; the last two
		// at the end of each phase).
		last := len(marks) - 1
		for k := range on {
			for i := 1; i < slices; i += 2 {
				on[k] += marks[i+1][k] - marks[i][k]
			}
			on[k] += marks[last][k] - marks[last-1][k]
			all[k] = marks[last][k] - okStart[k]
		}
		res.metrics = layerMetrics(tr, after, closed, open, d, on, all)
		return res, nil
	}
	// In the JSON only what repeats within its bound from run to run on a
	// shared 2-vCPU host: closed-loop throughput per CPU-second the
	// process was charged, set-up time and the live heap. Wall-clock
	// throughput and latency move with the host's CPU steal (closed-loop
	// throughput by up to a quarter between consecutive runs, open-loop
	// p50 by up to two fifths, p99 by several times), so they are
	// printed, not gated.
	res.metrics = []metric{
		{"mix_req_per_cpu_s", median(perCPU), "req/cpu-s"},
		{"setup_s", median(setups), "s"},
		{"heap_mb", heapMB, "MB"},
	}
	res.shown = []metric{{"mix_rps_per_core", float64(closedOK) / closedSec / float64(runtime.GOMAXPROCS(0)), "1/s"}}
	for k := kind(0); k < kindCount; k++ {
		if k == kindCold && w.OrgPeriod == 0 {
			continue // no collected activations without rotation
		}
		for _, p := range []float64{50, 99} {
			res.shown = append(res.shown, metric{
				fmt.Sprintf("%s_p%g_ms", kindNames[k], p), ms(percentile(open.lat[k], p)), "ms"})
		}
	}
	res.shown = append(res.shown, metric{"error_ratio", errRatio, "ratio"})
	return res, nil
}

// verdict decides whether a run is correct: no wrong answer, no failed
// request (a failed insert leaves its sensor's state unknown, so the
// sensor cannot be checked), and for a durable run no sloppy write and
// no hint. why lists each reason a run is not correct.
func verdict(nWrong int64, wrong []string, failed int64, unverifiable int, durable *durability) (ok bool, why []string) {
	why = append(why, wrong...)
	if nWrong > 0 {
		why = append(why, fmt.Sprintf("wrong answers: %d", nWrong))
	}
	if failed > 0 {
		why = append(why, fmt.Sprintf("failed requests: %d", failed))
	}
	if unverifiable > 0 {
		why = append(why, fmt.Sprintf("sensors left unverified by a failed insert: %d", unverifiable))
	}
	if durable != nil && (durable.sloppy != 0 || durable.hints != 0) {
		why = append(why, "a calm run recorded sloppy writes or hints")
	}
	return len(why) == 0, why
}

// durability is the outcome of the crash-and-reopen check.
type durability struct {
	channels      int
	sloppy, hints int64
}

// checkDurable crashes every silo (no deactivation flush, no store
// sync), reopens the stores from disk and re-reads every write-through
// channel by quorum.
func checkDurable(ctx context.Context, dep *deployment, d *driver, window int, traced *layerSnap) (*durability, error) {
	snap := snapRegistries(dep.regs)
	out := &durability{
		sloppy: snap.counters["replication.writes.sloppy"],
		hints:  snap.counters["replication.hints.recorded"],
	}
	if traced != nil {
		// The traced run reports the store's footprint before the crash.
		disk, err := diskBytes(dep.dirs)
		if err != nil {
			return nil, err
		}
		live, err := liveStateBytes(ctx, dep.stores)
		if err != nil {
			return nil, err
		}
		traced.diskBytes, traced.liveStateBytes = disk, live
	}
	dep.crash()
	if err := d.verifyDurable(ctx, dep, window); err != nil {
		return nil, err
	}
	for _, s := range d.pop.sensors {
		if !s.tainted {
			out.channels += len(s.phys)
		}
	}
	return out, nil
}

// tracer samples peak gauges while the timed phases run and snapshots
// every layer before and after them.
type tracer struct {
	dep      *deployment
	pr       *probes
	before   *layerSnap
	stopCh   chan struct{}
	done     sync.WaitGroup
	maxGor   atomic.Int64
	maxSendQ atomic.Int64
}

// layerSnap is every layer's counters at one instant.
type layerSnap struct {
	at                        time.Time
	regs                      regSnap
	goRT                      goSnap
	transport, load, store    probeSnap
	place                     probeSnap
	diskBytes, liveStateBytes int64
}

func (t *tracer) snap() *layerSnap {
	return &layerSnap{
		at:        time.Now(),
		regs:      snapRegistries(t.dep.regs),
		goRT:      readGo(),
		transport: t.pr.transport.snap(),
		load:      t.pr.load.snap(),
		store:     t.pr.store.snap(),
		place:     t.pr.place.snap(),
	}
}

func startTracer(dep *deployment, pr *probes) *tracer {
	t := &tracer{dep: dep, pr: pr, stopCh: make(chan struct{})}
	t.before = t.snap()
	t.done.Add(1)
	go func() {
		defer t.done.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			bump(&t.maxGor, int64(runtime.NumGoroutine()))
			bump(&t.maxSendQ, gaugeSum(dep.regs, "transport.sendq.depth"))
			select {
			case <-t.stopCh:
				return
			case <-tick.C:
			}
		}
	}()
	return t
}

func (t *tracer) stop() *layerSnap {
	close(t.stopCh)
	t.done.Wait()
	return t.snap()
}

// bump raises max to v if v is larger.
func bump(max *atomic.Int64, v int64) {
	for {
		m := max.Load()
		if v <= m || max.CompareAndSwap(m, v) {
			return
		}
	}
}
