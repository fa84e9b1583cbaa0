package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// declared reads the metric names BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads()[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q the benchmark does not have", w.Name)
		}
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// lastJSON parses the final line of a run's output.
func lastJSON(t *testing.T, out string) (correct bool, metrics map[string]struct {
	Value float64
	Unit  string
}) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res struct {
		Correct   bool
		Attempted int64
		Failed    int64
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	if res.Attempted < 1 {
		t.Errorf("attempted = %d", res.Attempted)
	}
	return res.Correct, res.Metrics
}

// TestEveryWorkloadPrintsEveryMetric runs each workload at a tiny size,
// untraced and traced, and checks that the JSON names exactly the
// metrics BENCHMARK.json declares, each with a unit, that the untraced
// report also prints throughput, every open-loop latency and the error
// ratio, and that the run is correct.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for name, w := range workloads() {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			}
			res, err := run(context.Background(), w.scaled(), runOptions{
				seed: 3, seconds: 1.5, trace: trace, dir: t.TempDir(),
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			var buf bytes.Buffer
			res.print(&buf)
			correct, got := lastJSON(t, buf.String())
			if !correct {
				t.Errorf("%s trace=%v: incorrect run:\n%s", name, trace, buf.String())
			}
			var names []string
			for n, m := range got {
				names = append(names, n)
				if m.Unit == "" {
					t.Errorf("%s: metric %s has no unit", name, n)
				}
				if !strings.Contains(buf.String(), n+" ") {
					t.Errorf("%s: metric %s not printed by name", name, n)
				}
			}
			sort.Strings(names)
			want = append([]string(nil), want...)
			sort.Strings(want)
			if strings.Join(names, ",") != strings.Join(want, ",") {
				t.Errorf("%s trace=%v: metrics\n got %v\nwant %v", name, trace, names, want)
			}
			if !trace {
				for k, kn := range kindNames {
					for _, n := range []string{kn + "_p50_ms ", kn + "_p99_ms "} {
						// cold_* belongs to the rotating workload only.
						expect := kind(k) != kindCold || w.OrgPeriod > 0
						if strings.Contains(buf.String(), n) != expect {
							t.Errorf("%s: %s printed = %v, want %v", name, n, !expect, expect)
						}
					}
				}
				for _, n := range []string{"mix_rps_per_core ", "error_ratio "} {
					if !strings.Contains(buf.String(), n) {
						t.Errorf("%s: %s not printed", name, n)
					}
				}
			}
			for _, fact := range []string{"nproc=", "GOMAXPROCS=", "go=go", "cpu=", "store_fs="} {
				if !strings.Contains(buf.String(), fact) {
					t.Errorf("%s: host fact %q missing", name, fact)
				}
			}
		}
	}
}

// setUpTiny deploys a workload at a tiny size and runs its set-up.
func setUpTiny(t *testing.T, name string) (*workload, *deployment, *driver) {
	t.Helper()
	w := workloads()[name].scaled()
	dep, err := w.deploy(&w, nil, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dep.close)
	d := &driver{plat: dep.plat, pop: newPopulation(w.Sensors), seed: 5}
	if err := setUp(context.Background(), &w, dep, d); err != nil {
		t.Fatal(err)
	}
	return &w, dep, d
}

func wrongCount(t *testing.T, d *driver) int64 {
	t.Helper()
	n, _ := d.wrongAnswers()
	return n
}

// TestChecksFireOnCorruptedReference corrupts the reference model in
// several ways and expects each check to report the platform wrong.
func TestChecksFireOnCorruptedReference(t *testing.T) {
	ctx := context.Background()
	corruptions := map[string]func(d *driver){
		"accumulated": func(d *driver) { d.pop.sensors[3].acc[1] += 0.5 },
		"latest":      func(d *driver) { d.pop.sensors[9].next-- }, // sensor 9 has a virtual channel
		"live-set":    func(d *driver) { d.pop.orgs[0] = d.pop.orgs[0][1:] },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			w, _, d := setUpTiny(t, "shm-steady")
			if _, err := d.verify(ctx, w.Window, 16); err != nil {
				t.Fatal(err)
			}
			if n := wrongCount(t, d); n != 0 {
				_, msgs := d.wrongAnswers()
				t.Fatalf("clean reference: %d wrong answers: %v", n, msgs)
			}
			corrupt(d)
			if _, err := d.verify(ctx, w.Window, 16); err != nil {
				t.Fatal(err)
			}
			if wrongCount(t, d) == 0 {
				t.Fatal("corrupted reference passed the checks")
			}
		})
	}
}

// TestFailedInsertFailsTheRun makes one insert fail and expects the run's
// verdict to be incorrect, not a smaller set of checked sensors.
func TestFailedInsertFailsTheRun(t *testing.T) {
	w, _, d := setUpTiny(t, "shm-steady")
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.do(cancelled, request{kind: kindInsert, sensor: 2}); err == nil {
		t.Fatal("insert with a cancelled context succeeded")
	}
	unverifiable, err := d.verify(context.Background(), w.Window, 16)
	if err != nil {
		t.Fatal(err)
	}
	nWrong, wrong := d.wrongAnswers()
	if nWrong != 0 {
		t.Fatalf("the other sensors' state is wrong: %v", wrong)
	}
	ok, why := verdict(nWrong, wrong, d.failed.Load(), unverifiable, nil)
	if ok {
		t.Fatal("a run with a failed insert was judged correct")
	}
	t.Log(why)
}

// TestDurabilityCheckFires crashes a tiny state-churn deployment and
// checks the reopened stores against a clean, then a corrupted,
// reference.
func TestDurabilityCheckFires(t *testing.T) {
	ctx := context.Background()
	w, dep, d := setUpTiny(t, "state-churn")
	// verify drains every channel's pending inserts, as in a run.
	if _, err := d.verify(ctx, w.Window, 16); err != nil {
		t.Fatal(err)
	}
	dep.crash()
	if err := d.verifyDurable(ctx, dep, w.Window); err != nil {
		t.Fatal(err)
	}
	if n := wrongCount(t, d); n != 0 {
		_, msgs := d.wrongAnswers()
		t.Fatalf("clean reference: %d wrong answers: %v", n, msgs)
	}
	d.pop.sensors[4].acc[0] += 1
	if err := d.verifyDurable(ctx, dep, w.Window); err != nil {
		t.Fatal(err)
	}
	if wrongCount(t, d) == 0 {
		t.Fatal("corrupted reference passed the durability check")
	}
}

// TestInputsAreSeeded checks that the generated inputs depend only on
// the seed.
func TestInputsAreSeeded(t *testing.T) {
	a, b := newPopulation(50), newPopulation(50)
	ta, pa := a.sensors[7].batch(11, 10)
	tb, pb := b.sensors[7].batch(11, 10)
	if !ta.Equal(tb) || pa[1][3] != pb[1][3] {
		t.Fatal("same seed, different inputs")
	}
	if _, pc := b.sensors[7].batch(12, 10); pc[1][3] == pa[1][3] {
		t.Fatal("different seeds, same inputs")
	}
}
