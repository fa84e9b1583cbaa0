package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"

	"aodb/internal/kvstore"
	"aodb/internal/metrics"
	"aodb/internal/replication"
	"aodb/internal/shm"
)

// parallel runs fn(i) for i in [0, n) on a few goroutines.
func parallel(n, workers int, fn func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// verify compares the platform's state with the reference model after
// the timed phases: every physical channel's accumulated change, every
// channel's latest reading (through the live-data query, which also
// fences the virtual channels behind their inputs), and a seeded sample
// of raw-data ranges. Wrong answers are recorded on the driver; err is
// returned only when the platform could not answer at all. Sensors with
// a failed insert have no single expected state; they are counted in
// the returned number, not compared, and make the run incorrect.
func (d *driver) verify(ctx context.Context, window, samples int) (unverifiable int, err error) {
	var errMu sync.Mutex
	setErr := func(e error) {
		errMu.Lock()
		if err == nil {
			err = e
		}
		errMu.Unlock()
	}
	for _, s := range d.pop.sensors {
		if s.tainted {
			unverifiable++
		}
	}
	// Accumulated change: each call queues behind the channel's pending
	// inserts, so afterwards every virtual input has been sent.
	parallel(len(d.pop.sensors), 8, func(i int) {
		s := d.pop.sensors[i]
		if s.tainted {
			return
		}
		for c, key := range s.phys {
			got, e := d.plat.AccumulatedChange(ctx, key)
			if e != nil {
				setErr(fmt.Errorf("accumulated change of %s: %w", key, e))
				return
			}
			if got != s.acc[c] {
				d.noteWrong("accumulated change of %s = %v, want %v", key, got, s.acc[c])
			}
		}
	})
	if err != nil {
		return unverifiable, err
	}
	// Latest reading of every channel, one live query per organization.
	byKey := map[string]channelRef{}
	for _, c := range d.pop.channels {
		byKey[c.key] = c
	}
	parallel(len(d.pop.orgs), 4, func(org int) {
		got, e := d.plat.LiveData(ctx, shm.OrgKey(org))
		if e != nil {
			setErr(fmt.Errorf("live data of org %d: %w", org, e))
			return
		}
		d.checkLive(org, got)
		for _, r := range got {
			c := byKey[r.Channel]
			s := d.pop.sensors[c.sensor]
			if s.tainted {
				continue
			}
			want := s.expectLatest(d.seed, c.ch)
			if !r.Point.At.Equal(want.At) || r.Point.Value != want.Value {
				d.noteWrong("latest of %s = %v@%s, want %v@%s", r.Channel,
					r.Point.Value, r.Point.At, want.Value, want.At)
			}
		}
	})
	if err != nil {
		return unverifiable, err
	}
	// A seeded sample of raw-data ranges, regenerated point by point.
	rng := rand.New(rand.NewSource(d.seed*31 + 7))
	pick := make([]channelRef, 0, samples)
	for i := 0; i < samples; i++ {
		c := d.pop.channels[rng.Intn(len(d.pop.channels))]
		if !d.pop.sensors[c.sensor].tainted {
			pick = append(pick, c)
		}
	}
	span := int64(window)
	if span > 200 {
		span = 200
	}
	parallel(len(pick), 4, func(i int) {
		c := pick[i]
		s := d.pop.sensors[c.sensor]
		lo := s.next - span
		if lo < 0 {
			lo = 0
		}
		got, e := d.plat.RawData(ctx, c.key, pointAt(lo), pointAt(s.next-1))
		if e != nil {
			setErr(fmt.Errorf("raw data of %s: %w", c.key, e))
			return
		}
		if int64(len(got)) != s.next-lo {
			d.noteWrong("raw %s: %d points, want %d", c.key, len(got), s.next-lo)
			return
		}
		for j, p := range got {
			n := lo + int64(j)
			want := shm.DataPoint{At: pointAt(n)}
			if c.ch >= 0 {
				want.Value = pointValue(d.seed, s.idx, c.ch, n)
			} else {
				want.Value = s.virtualValue(d.seed, n)
			}
			if !p.At.Equal(want.At) || p.Value != want.Value {
				d.noteWrong("raw %s point %d = %v@%s, want %v@%s", c.key, n, p.Value, p.At, want.Value, want.At)
				return
			}
		}
	})
	return unverifiable, err
}

// channelState mirrors the persisted fields of the SHM channel actor
// that the durability check compares (the state is stored as JSON).
type channelState struct {
	Window      []shm.DataPoint
	Accumulated float64
	LastValue   float64
	HasLast     bool
}

// verifyDurable reopens every silo's store from its directory, as a
// restarted process would, and checks by quorum read that each physical
// channel's write-through state holds its last acknowledged insert. The
// caller has crashed the silos first, so nothing was flushed on the way
// down.
func (d *driver) verifyDurable(ctx context.Context, dep *deployment, window int) error {
	names := dep.ring.Members()
	local := map[string]*replication.Store{}
	var reopened []*kvstore.Store
	defer func() {
		for _, st := range reopened {
			_ = st.Close() // read-only use
		}
	}()
	for i, dir := range dep.dirs {
		st, err := kvstore.Open(kvstore.Options{Dir: dir})
		if err != nil {
			return fmt.Errorf("reopen %s: %w", dir, err)
		}
		reopened = append(reopened, st)
		tab, err := st.EnsureTable("grains", kvstore.Throughput{})
		if err != nil {
			return err
		}
		rs, err := replication.NewStore(replication.StoreConfig{
			Silo: names[i], Table: tab, Ring: dep.ring, N: len(names), Metrics: metrics.NewRegistry(),
		})
		if err != nil {
			return err
		}
		local[names[i]] = rs
	}
	coord, err := replication.NewCoordinator(replication.Config{
		Ring: dep.ring, N: len(names), R: 2, W: 2, Local: local, Metrics: metrics.NewRegistry(),
	})
	if err != nil {
		return err
	}
	defer coord.Close(ctx)
	var errMu sync.Mutex
	parallel(len(d.pop.sensors), 8, func(i int) {
		s := d.pop.sensors[i]
		if s.tainted {
			return
		}
		for c, key := range s.phys {
			raw, _, e := coord.Get(ctx, "PhysicalChannel/"+key)
			if e != nil {
				errMu.Lock()
				if err == nil {
					err = fmt.Errorf("quorum read of %s after restart: %w", key, e)
				}
				errMu.Unlock()
				return
			}
			var st channelState
			if e := json.Unmarshal(raw, &st); e != nil {
				d.noteWrong("state of %s after restart: %v", key, e)
				continue
			}
			want := s.expectLatest(d.seed, c)
			wantLen := s.next
			if wantLen > int64(window) {
				wantLen = int64(window)
			}
			switch {
			case st.Accumulated != s.acc[c]:
				d.noteWrong("durable %s: accumulated %v, want %v", key, st.Accumulated, s.acc[c])
			case int64(len(st.Window)) != wantLen:
				d.noteWrong("durable %s: %d points, want %d", key, len(st.Window), wantLen)
			case !st.Window[len(st.Window)-1].At.Equal(want.At) || st.Window[len(st.Window)-1].Value != want.Value:
				d.noteWrong("durable %s: last point %v, want %v", key, st.Window[len(st.Window)-1], want)
			}
		}
	})
	return err
}
