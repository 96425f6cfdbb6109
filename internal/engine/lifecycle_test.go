package engine

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// settledGoroutines waits for the goroutine count to drop to at most
// want and returns the last count seen.
func settledGoroutines(want int, wait time.Duration) int {
	deadline := time.Now().Add(wait)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCloseLeavesNoGoroutines: queries, run with a cancellable context
// so their cancellation watch is armed, leave no goroutine behind once
// the cluster is closed.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	before := settledGoroutines(0, 0)
	c := buildFaultCluster(t, faultBaseConfig(EP, 2), false)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 20; i++ {
		if _, err := c.RunContext(ctx, metamorphicQueries[i%len(metamorphicQueries)]); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	if after := settledGoroutines(before, 5*time.Second); after > before {
		buf := make([]byte, 1<<16)
		n := runtime.Stack(buf, true)
		t.Fatalf("goroutines after Close: %d, baseline %d\n%s", after, before, buf[:n])
	}
}

// TestSamplerTracesLongQuery: a query that outlives the first sampling
// tick records a parallelism trace at 25 ms spacing.
func TestSamplerTracesLongQuery(t *testing.T) {
	cfg := faultBaseConfig(EP, 2)
	// About 96 KB per data node through a 1 MB/s NIC: ~100 ms.
	cfg.NetBytesPerSec = 1 << 20
	c := buildFaultCluster(t, cfg, false)
	defer c.Close()
	res, err := c.Run("SELECT acct_id, sec_code, trade_volume FROM trades")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Duration < 3*sampleEvery {
		t.Fatalf("query took %v, too short to test sampling", res.Stats.Duration)
	}
	tr := res.Stats.Trace
	if len(tr) < 2 {
		t.Fatalf("%v query recorded %d trace samples, want at least 2", res.Stats.Duration, len(tr))
	}
	if tr[0].At < sampleEvery {
		t.Errorf("first sample at %v, before the first tick", tr[0].At)
	}
	for i, s := range tr {
		if len(s.Parallelism) == 0 {
			t.Fatalf("sample %d has no segments", i)
		}
		if i > 0 && s.At-tr[i-1].At < sampleEvery/2 {
			t.Errorf("samples %d and %d only %v apart", i-1, i, s.At-tr[i-1].At)
		}
	}
}

// TestShortQueryRecordsNoSamples: a query that ends before the first
// sampling tick records no trace sample. The sampler takes its first
// reading as soon as it starts, so a sample would show a sampler
// started for a short query.
func TestShortQueryRecordsNoSamples(t *testing.T) {
	c := buildFaultCluster(t, faultBaseConfig(EP, 2), false)
	defer c.Close()
	q := "SELECT acct_id, trade_volume FROM trades WHERE sec_code = 7"
	short := 0
	for i := 0; i < 10; i++ {
		t0 := time.Now()
		res, err := c.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		if time.Since(t0) >= sampleEvery {
			continue // slow machine: the sampler may rightly have started
		}
		short++
		if len(res.Stats.Trace) != 0 {
			t.Fatalf("a %v query recorded %d trace samples", time.Since(t0), len(res.Stats.Trace))
		}
	}
	if short == 0 {
		t.Skip("no lookup finished within one sampling interval")
	}
}
