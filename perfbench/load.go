package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aodb/internal/metrics"
	"aodb/internal/shm"
)

// kind classifies a generated request.
type kind int

const (
	kindInsert kind = iota
	kindLive
	kindRaw
	kindCold
	kindCount
)

var kindNames = [kindCount]string{"insert", "live", "raw", "cold"}

// request is one generated operation. due is when the schedule wanted it
// sent; open-loop latency is measured from there. kindCold is never
// generated: it labels an insert that found its actors collected.
type request struct {
	kind    kind
	sensor  int
	org     int
	channel int // index into population.channels
	due     time.Time
}

// driver issues requests against a platform and keeps the reference
// model and the outcome counters.
type driver struct {
	plat *shm.Platform
	pop  *population
	seed int64
	// coldAfter, when positive, labels an insert cold when its sensor has
	// been idle this long, so its actors have been collected.
	coldAfter time.Duration

	attempted atomic.Int64
	failed    atomic.Int64
	wrongMu   sync.Mutex
	wrong     []string // answers that failed a check (first few kept)
	nWrong    atomic.Int64
	fanout    metrics.Histogram // readings per live query

	// ok counts successful requests by kind.
	ok [kindCount]atomic.Int64

	// Outstanding requests, for loadgen.outstanding_max.
	inflight    atomic.Int64
	inflightMax atomic.Int64
}

func (d *driver) noteWrong(format string, args ...any) {
	d.nWrong.Add(1)
	d.wrongMu.Lock()
	if len(d.wrong) < 8 {
		d.wrong = append(d.wrong, fmt.Sprintf(format, args...))
	}
	d.wrongMu.Unlock()
}

// wrongAnswers returns how many checked answers were wrong and the first
// few of them.
func (d *driver) wrongAnswers() (int64, []string) {
	d.wrongMu.Lock()
	defer d.wrongMu.Unlock()
	return d.nWrong.Load(), append([]string(nil), d.wrong...)
}

// do executes one request and reports its kind (an insert to a collected
// activation comes back as kindCold) and its error.
func (d *driver) do(ctx context.Context, r request) (kind, error) {
	bump(&d.inflightMax, d.inflight.Add(1))
	defer d.inflight.Add(-1)
	d.attempted.Add(1)
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	k, err := d.exec(ctx, r)
	if err != nil {
		d.failed.Add(1)
	} else {
		d.ok[k].Add(1)
	}
	return k, err
}

// okCounts returns the successful requests so far, by kind.
func (d *driver) okCounts() (out [kindCount]int64) {
	for k := range out {
		out[k] = d.ok[k].Load()
	}
	return out
}

func (d *driver) exec(ctx context.Context, r request) (kind, error) {
	switch r.kind {
	case kindInsert:
		s := d.pop.sensors[r.sensor]
		k := kindInsert
		if d.coldAfter > 0 {
			if last := s.lastDone.Load(); last != 0 && time.Since(time.Unix(0, last)) > d.coldAfter {
				k = kindCold
			}
		}
		at, per := s.batch(d.seed, points)
		err := d.plat.Ingest(ctx, s.key, at, per)
		if err != nil {
			s.failedInsert(points)
			return k, err
		}
		s.applied(per)
		s.lastDone.Store(time.Now().UnixNano())
		return k, nil
	case kindLive:
		got, err := d.plat.LiveData(ctx, shm.OrgKey(r.org))
		if err != nil {
			return kindLive, err
		}
		d.fanout.Record(int64(len(got)))
		d.checkLive(r.org, got)
		return kindLive, nil
	case kindRaw:
		c := d.pop.channels[r.channel]
		// The minute around the sensor's last acknowledged reading: its
		// window always overlaps it, even if more inserts land before the
		// query is served.
		n := d.pop.sensors[c.sensor].acked.Load()
		from, to := pointAt(n-600), pointAt(n+599)
		pts, err := d.plat.RawData(ctx, c.key, from, to)
		if err != nil {
			return kindRaw, err
		}
		// A physical channel's newest points always fall in the range.
		// A virtual channel is derived asynchronously and may lag behind
		// under load, so only its range is checked here; verify compares
		// it exactly once the run has drained.
		if len(pts) == 0 && c.ch >= 0 {
			d.noteWrong("raw %s [%d points back]: empty answer", c.key, 600)
		}
		for _, p := range pts {
			if p.At.Before(from) || p.At.After(to) {
				d.noteWrong("raw %s: point at %s outside [%s, %s]", c.key, p.At, from, to)
				break
			}
		}
		return kindRaw, nil
	}
	return r.kind, fmt.Errorf("perfbench: unknown request kind %d", r.kind)
}

// checkLive verifies a live-data answer holds one reading per channel of
// the organization.
func (d *driver) checkLive(org int, got []shm.LiveReading) {
	want := d.pop.orgs[org]
	if len(got) != len(want) {
		d.noteWrong("live org-%d: %d readings, want %d", org, len(got), len(want))
		return
	}
	names := make([]string, len(got))
	for i, r := range got {
		names[i] = r.Channel
	}
	sort.Strings(names)
	for i := range names {
		if names[i] != want[i] {
			d.noteWrong("live org-%d: reading for %s, want %s", org, names[i], want[i])
			return
		}
	}
}

// mix draws the next request kind of the paper's 98/1/1 mix.
func mix(rng *rand.Rand) kind {
	switch u := rng.Intn(100); {
	case u < 98:
		return kindInsert
	case u == 98:
		return kindLive
	default:
		return kindRaw
	}
}

// closedResult is the outcome of one slice of a closed-loop phase. cpu
// is the CPU time the process was charged meanwhile, in seconds.
type closedResult struct {
	completed int64
	elapsed   time.Duration
	cpu       float64
}

// runClosed drives the 98/1/1 mix with a fixed number of workers, each
// sending its next request only when the previous one completed. Worker
// w owns the sensors with index ≡ w (mod workers), so each sensor's
// inserts stay in order. slices splits the phase into equal parts;
// before each part, onSlice (if set) is told the part's index.
func (d *driver) runClosed(ctx context.Context, workers int, dur time.Duration, slices int, onSlice func(int)) []closedResult {
	if slices < 1 {
		slices = 1
	}
	if workers > len(d.pop.sensors) {
		workers = len(d.pop.sensors)
	}
	owned := make([][]int, workers)
	for s := range d.pop.sensors {
		owned[s%workers] = append(owned[s%workers], s)
	}
	rngs := make([]*rand.Rand, workers)
	for w := range rngs {
		rngs[w] = rand.New(rand.NewSource(d.seed*7919 + int64(w) + 1))
		owned[w] = shuffled(rngs[w], owned[w])
	}
	pos := make([]int, workers)
	out := make([]closedResult, slices)
	for sl := 0; sl < slices; sl++ {
		if onSlice != nil {
			onSlice(sl)
		}
		var done atomic.Int64
		cpu := processCPU()
		start := time.Now()
		end := start.Add(dur / time.Duration(slices))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rngs[w]
				for time.Now().Before(end) && ctx.Err() == nil {
					r := request{kind: mix(rng)}
					switch r.kind {
					case kindInsert:
						r.sensor = owned[w][pos[w]%len(owned[w])]
						pos[w]++
					case kindLive:
						r.org = rng.Intn(len(d.pop.orgs))
					case kindRaw:
						r.channel = rng.Intn(len(d.pop.channels))
					}
					if _, err := d.do(ctx, r); err == nil {
						done.Add(1)
					}
				}
			}(w)
		}
		wg.Wait()
		out[sl] = closedResult{completed: done.Load(), elapsed: time.Since(start), cpu: processCPU() - cpu}
	}
	return out
}

// openResult holds an open-loop phase's latencies, timed from each
// request's due time, and how late the pacer ran.
type openResult struct {
	lat     [kindCount][]time.Duration
	late    []time.Duration
	elapsed time.Duration
}

// runOpen drives requests on a fixed schedule regardless of completions.
// One pacer goroutine emits every request whose due time has passed and
// hands it to a worker queue; a stalled platform does not slow the
// schedule, it grows the queues — and each request's latency still
// counts from its due time.
// Inserts go to the worker owning the sensor (in order per sensor);
// queries go to a shared query pool.
func (d *driver) runOpen(ctx context.Context, w *workload, dur time.Duration) openResult {
	var res openResult
	var resMu sync.Mutex
	total := int(w.Rate*dur.Seconds()) + 1
	// Each queue holds twice a worker's share of the phase, so only a
	// stall nearly as long as the phase could block the pacer.
	insertQ := make([]chan request, insertWorkers)
	for i := range insertQ {
		insertQ[i] = make(chan request, 2*total/insertWorkers+1)
	}
	queryQ := make(chan request, total)

	var wg sync.WaitGroup
	worker := func(q chan request) {
		defer wg.Done()
		var lat [kindCount][]time.Duration
		for r := range q {
			k, err := d.do(ctx, r)
			l := time.Since(r.due)
			if err != nil && l < timeout {
				// A failed request misses every latency limit.
				l = timeout
			}
			lat[k] = append(lat[k], l)
		}
		resMu.Lock()
		for k := range lat {
			res.lat[k] = append(res.lat[k], lat[k]...)
		}
		resMu.Unlock()
	}
	for _, q := range insertQ {
		wg.Add(1)
		go worker(q)
	}
	for i := 0; i < queryWorkers; i++ {
		wg.Add(1)
		go worker(queryQ)
	}

	rng := rand.New(rand.NewSource(d.seed*104729 + 17))
	all := make([]int, len(d.pop.sensors))
	for i := range all {
		all[i] = i
	}
	order := shuffled(rng, all)
	next := 0 // round-robin position without rotation
	// With rotation, organizations take turns in a seeded order; a turn's
	// requests go to its own sensors and channels only.
	orgOrder := shuffled(rng, all[:len(d.pop.orgs)])
	orgChannels := make([][]int, len(d.pop.orgs))
	for i, c := range d.pop.channels {
		org := d.pop.sensors[c.sensor].org
		orgChannels[org] = append(orgChannels[org], i)
	}

	start := time.Now()
	interval := time.Duration(float64(time.Second) / w.Rate)
	late := make([]time.Duration, 0, total)
	for i := 0; ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(i) * interval)
		if due.Sub(start) >= dur {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		late = append(late, time.Since(due))
		r := request{due: due, kind: mix(rng)}
		if w.OrgPeriod > 0 {
			r.org = orgOrder[int(due.Sub(start)/w.OrgPeriod)%len(orgOrder)]
			first := r.org * sensorsPerOrg
			r.sensor = first + rng.Intn(min(sensorsPerOrg, len(d.pop.sensors)-first))
			r.channel = orgChannels[r.org][rng.Intn(len(orgChannels[r.org]))]
		} else {
			r.sensor = order[next%len(order)]
			r.org = rng.Intn(len(d.pop.orgs))
			r.channel = rng.Intn(len(d.pop.channels))
		}
		switch r.kind {
		case kindInsert:
			if w.OrgPeriod == 0 {
				next++
			}
			insertQ[r.sensor%insertWorkers] <- r
		default:
			queryQ <- r
		}
	}
	for _, q := range insertQ {
		close(q)
	}
	close(queryQ)
	wg.Wait()
	res.elapsed = time.Since(start)
	res.late = late
	return res
}
