// Command perfbench is the repository's end-to-end benchmark. It drives
// the SHM platform (internal/shm over internal/core) through its public
// API in one of three workloads, checks every answer against a reference
// model built from its own seeded inputs, and prints each metric by name
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload shm-steady --seed 1 --seconds 30 --trace 0
//
// A run sets the platform up three times (deployment, population,
// window prefill) and warms each one up with the closed-loop mix for a
// fixed half second; it measures the last one: first a closed loop of
// the 98/1/1 mix with a fixed number of outstanding requests, then an
// open loop at the workload's fixed rate. Each phase starts right after a
// forced garbage collection, so every run meets the GC cycle at the same
// point.
//
// End-to-end metrics (--trace 0, no probes installed), in the JSON:
//
//   - mix_req_per_cpu_s: closed-loop completions per CPU-second the
//     kernel charged the process (platform and load generator alike).
//   - setup_s: median set-up time, deployment to the end of the prefill;
//     the fixed warm-up is not timed.
//   - heap_mb: live heap after a forced GC at the end of the timed phases.
//
// Printed by name and unit but left out of the JSON, because on a shared
// 2-vCPU host their run-to-run spread exceeds any usable bound:
//
//   - mix_rps_per_core: closed-loop completions per wall-clock second per
//     GOMAXPROCS.
//   - insert, live and raw _p50_ms and _p99_ms, and on state-churn cold
//     _p50_ms and _p99_ms: open-loop latency timed from each request's
//     due time, over the whole phase; the report adds the sample count,
//     the highest percentile with ten samples beyond it and the maximum.
//     A cold request is an insert whose sensor sat idle past collection.
//   - error_ratio: failed over attempted requests, set-up warm-ups
//     included. Failed requests count against every latency limit, and
//     any failed request makes the run incorrect; the JSON carries them
//     as "failed" of "attempted".
//
// --trace 1 prints the per-layer metrics instead, from a run whose
// transport, state store and placement are wrapped in timing probes,
// together with the probes' own overhead on the closed loop.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "shm-steady", "workload: shm-steady, shm-tcp or state-churn")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "measured time per run")
	trace := flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	dir := flag.String("dir", filepath.Join(".bench_build", "perfbench-run"), "scratch directory for stores")
	flag.Parse()

	w, ok := workloads()[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace takes 0 or 1")
		os.Exit(2)
	}
	runDir := filepath.Join(*dir, fmt.Sprintf("%s-%d", w.Name, os.Getpid()))
	defer os.RemoveAll(runDir)
	// Every run ends well inside three minutes; the deadline turns a hang
	// into an error instead of an overrun.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	res, err := run(ctx, w, runOptions{
		seed: *seed, seconds: *seconds, trace: *trace == 1, dir: runDir,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.Name, err)
		os.RemoveAll(runDir)
		os.Exit(1)
	}
	res.print(os.Stdout)
}

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is everything one run reports.
type result struct {
	correct           bool
	attempted, failed int64
	metrics           []metric // end-to-end or per-layer, by mode
	shown             []metric // printed with the metrics, not in the JSON
	notes             []string // report lines printed before the JSON
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) print(f io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintln(f, n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	for _, m := range r.shown {
		fmt.Fprintf(f, "%-36s %14.6f %s\n", m.name, m.value, m.unit)
	}
	ms := map[string]value{}
	for _, m := range r.metrics {
		fmt.Fprintf(f, "%-36s %14.6f %s\n", m.name, m.value, m.unit)
		ms[m.name] = value{m.value, m.unit}
	}
	out, _ := json.Marshal(struct { // plain values always marshal
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	fmt.Fprintln(f, string(out))
}

// hostFacts describes the machine a run measured.
func hostFacts(dir string) string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.IndexByte(line, ':'); i >= 0 {
					cpu = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d go=%s cpu=%q store_fs=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpu, filesystem(dir))
}

// percentile returns the p-th percentile (0-100) of xs by the
// nearest-rank rule; xs is sorted in place.
func percentile(xs []time.Duration, p float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	rank := int(float64(len(xs))*p/100+0.999999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(xs) {
		rank = len(xs) - 1
	}
	return xs[rank]
}

// tailPercentile is the highest of a few standard percentiles that still
// has at least ten samples beyond it.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.99, 99.9, 99, 90} {
		if float64(n)*(1-p/100) >= 10 {
			return p
		}
	}
	return 50
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
