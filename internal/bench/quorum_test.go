package bench

import (
	"context"
	"testing"
	"time"
)

// TestQuorumLatencyN1FastPath pins the acceptance criterion that
// replication is pay-for-what-you-use: a single-replica (N=1)
// coordinator put through the Local-map fast path stays within 10% of a
// bare durable table put. Latency assertions are noisy in CI, so the
// bound carries slack via repetition: the check passes if any of three
// attempts lands inside the envelope.
func TestQuorumLatencyN1FastPath(t *testing.T) {
	if testing.Short() {
		t.Skip("latency measurement; skipped in -short")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	const slack = 1.10
	var last QuorumLatencyResult
	for attempt := 0; attempt < 3; attempt++ {
		res, err := RunQuorumLatency(ctx, QuorumLatencyConfig{
			Silos: 1, N: 1, R: 1, W: 1,
			Ops: 3000, Dir: t.TempDir(), Durable: true,
		})
		if err != nil {
			t.Fatalf("quorum latency harness: %v", err)
		}
		last = res
		t.Logf("attempt %d: N=1 quorum p50=%v mean=%v; baseline p50=%v mean=%v",
			attempt, res.P50, res.Mean, res.BaselineP50, res.BaselineMean)
		if float64(res.P50) <= float64(res.BaselineP50)*slack {
			return
		}
	}
	t.Errorf("N=1 quorum put p50 %v exceeds baseline %v by more than %.0f%%",
		last.P50, last.BaselineP50, (slack-1)*100)
}
