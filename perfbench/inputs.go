package main

import (
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"aodb/internal/shm"
)

// The benchmark's inputs are a pure function of the seed: every reading
// is identified by (sensor, channel, point index) and its value and
// timestamp are derived from that identity, so the reference model can
// regenerate any point instead of storing the windows a second time.

// pointInterval spaces consecutive readings of one channel (10 Hz, the
// paper's sampling rate).
const pointInterval = 100 * time.Millisecond

// epoch is the timestamp of every channel's point 0. It is fixed, not the
// wall clock, so identical seeds produce identical requests.
var epoch = time.Date(2019, 3, 26, 0, 0, 0, 0, time.UTC)

// pointAt is the timestamp of point index n.
func pointAt(n int64) time.Time { return epoch.Add(time.Duration(n) * pointInterval) }

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// pointValue is the reading of channel ch of sensor s at point index n,
// uniform in [0, 100).
func pointValue(seed int64, s, ch int, n int64) float64 {
	h := splitmix64(uint64(seed) ^ splitmix64(uint64(s)<<20^uint64(ch)) ^ uint64(n)<<1)
	return float64(h>>11) / (1 << 53) * 100
}

// population mirrors shm.DefaultPopulation: 100 sensors per
// organization, two physical channels per sensor, and a virtual channel
// summing them on every tenth sensor.
type population struct {
	sensors []*sensorRef
	orgs    [][]string // org index -> its channel keys, sorted
	// channels lists every queryable channel (physical and virtual).
	channels []channelRef
}

const (
	sensorsPerOrg     = 100
	channelsPerSensor = 2
	virtualEveryNth   = 10
)

type channelRef struct {
	sensor int
	ch     int // physical channel index, or -1 for the virtual channel
	key    string
}

func newPopulation(n int) *population {
	p := &population{}
	orgs := (n + sensorsPerOrg - 1) / sensorsPerOrg
	p.orgs = make([][]string, orgs)
	for s := 0; s < n; s++ {
		org := s / sensorsPerOrg
		key := shm.SensorKey(shm.OrgKey(org), s%sensorsPerOrg)
		r := &sensorRef{
			idx:  s,
			org:  org,
			key:  key,
			last: make([]float64, channelsPerSensor),
			acc:  make([]float64, channelsPerSensor),
		}
		for c := 0; c < channelsPerSensor; c++ {
			ck := shm.ChannelKey(key, c)
			r.phys = append(r.phys, ck)
			p.orgs[org] = append(p.orgs[org], ck)
			p.channels = append(p.channels, channelRef{sensor: s, ch: c, key: ck})
		}
		if s%virtualEveryNth == virtualEveryNth-1 {
			r.virt = shm.VirtualKey(key)
			p.orgs[org] = append(p.orgs[org], r.virt)
			p.channels = append(p.channels, channelRef{sensor: s, ch: -1, key: r.virt})
		}
		p.sensors = append(p.sensors, r)
	}
	for _, chans := range p.orgs {
		sort.Strings(chans)
	}
	return p
}

// sensorRef is the reference model of one sensor: what its channels must
// hold given the inserts the platform acknowledged. Only the load worker
// that owns the sensor writes next/last/acc/has/tainted, so a sensor's
// inserts are issued one at a time and in order, exactly as a device
// would send them.
type sensorRef struct {
	idx  int
	org  int
	key  string
	phys []string
	virt string

	next    int64     // next point index to send
	last    []float64 // per physical channel: last acknowledged value
	acc     []float64 // per physical channel: accumulated change
	has     bool
	tainted bool // an insert failed, so which points landed is unknown

	// acked is next as of the last acknowledged insert, readable by the
	// query workers that aim raw-data ranges at this sensor.
	acked atomic.Int64
	// lastDone is when the sensor's last insert completed (unix nanos);
	// state-churn labels an insert cold when the gap exceeds the idle
	// collection threshold.
	lastDone atomic.Int64
}

// batch returns the insert payload for the sensor's next k points.
func (r *sensorRef) batch(seed int64, k int) (time.Time, [][]float64) {
	per := make([][]float64, len(r.phys))
	for c := range per {
		pts := make([]float64, k)
		for j := range pts {
			pts[j] = pointValue(seed, r.idx, c, r.next+int64(j))
		}
		per[c] = pts
	}
	return pointAt(r.next), per
}

// applied folds an acknowledged batch into the reference, with exactly
// the arithmetic the channel actor performs, so accumulated change
// compares bit for bit.
func (r *sensorRef) applied(per [][]float64) {
	for c, pts := range per {
		for j, v := range pts {
			if r.has || j > 0 {
				d := v - r.last[c]
				if d < 0 {
					d = -d
				}
				r.acc[c] += d
			}
			r.last[c] = v
		}
	}
	r.has = true
	r.next += int64(len(per[0]))
	r.acked.Store(r.next)
}

// failedInsert records an insert whose outcome is unknown; the points it
// used are skipped so later inserts never reuse them.
func (r *sensorRef) failedInsert(k int) {
	r.tainted = true
	r.next += int64(k)
}

// expectLatest is the channel's expected most recent reading: for a
// physical channel its last point, for the virtual channel the sum of
// the physical channels' last points.
func (r *sensorRef) expectLatest(seed int64, ch int) shm.DataPoint {
	n := r.next - 1
	if ch >= 0 {
		return shm.DataPoint{At: pointAt(n), Value: pointValue(seed, r.idx, ch, n)}
	}
	return shm.DataPoint{At: pointAt(n), Value: r.virtualValue(seed, n)}
}

// virtualValue repeats the virtual channel's sum: 0 + ch0 + ch1.
func (r *sensorRef) virtualValue(seed int64, n int64) float64 {
	var sum float64
	for c := range r.phys {
		sum += pointValue(seed, r.idx, c, n)
	}
	return sum
}

// shuffled returns a seeded permutation of xs.
func shuffled(rng *rand.Rand, xs []int) []int {
	out := append([]int(nil), xs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
