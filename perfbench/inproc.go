package main

import (
	"runtime"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/telemetry"
)

// inprocTrace accumulates what the traced windows cost a system running
// in the benchmark's own process: Go heap allocations and collections,
// the plan cache's counters, and the program's process registry, which
// is installed only while tracing is on.
type inprocTrace struct {
	c   *engine.Cluster
	reg *telemetry.Registry

	mem0   runtime.MemStats
	cache0 plan.CacheStats

	allocBytes, gcs         uint64
	hits, misses, evictions int64
}

func (t *inprocTrace) on() {
	if t.reg == nil {
		t.reg = telemetry.NewRegistry(false)
	}
	telemetry.SetDefaultRegistry(t.reg)
	runtime.ReadMemStats(&t.mem0)
	t.cache0 = t.c.PlanCacheStats()
}

func (t *inprocTrace) off() {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	cs := t.c.PlanCacheStats()
	telemetry.SetDefaultRegistry(nil)
	t.allocBytes += mem.TotalAlloc - t.mem0.TotalAlloc
	t.gcs += uint64(mem.NumGC - t.mem0.NumGC)
	t.hits += cs.Hits - t.cache0.Hits
	t.misses += cs.Misses - t.cache0.Misses
	t.evictions += cs.Evictions - t.cache0.Evictions
}

// fill writes the traced windows' Go, plan-cache, admission and spill
// metrics for stmts statements.
func (t *inprocTrace) fill(stmts int, m map[string]float64) {
	if stmts > 0 {
		m["go.alloc_bytes_per_stmt"] = float64(t.allocBytes) / float64(stmts)
		m["go.gc_per_kstmt"] = float64(t.gcs) * 1000 / float64(stmts)
		m["plan.cache_evictions_per_kstmt"] = float64(t.evictions) * 1000 / float64(stmts)
	}
	if t.hits+t.misses > 0 {
		m["plan.cache_hit_ratio"] = float64(t.hits) / float64(t.hits+t.misses)
	}
	if t.reg == nil {
		return
	}
	// Statements that passed admission observed their wait. The first
	// bucket ends at 1 ms, so windows in which nothing waited report 0,
	// not that bucket's midpoint.
	if h, ok := t.reg.Histograms()[telemetry.HistAdmitWait]; ok && h.Count() > 0 {
		m["server.admit_wait_us.p50"], m["server.admit_wait_us.p99"] = 0, 0
		if h.Sum > 0 {
			m["server.admit_wait_us.p50"] = h.Quantile(0.50) * 1e6
			m["server.admit_wait_us.p99"] = h.Quantile(0.99) * 1e6
		}
	}
	m["block.spill_events"] = float64(t.reg.Counter(telemetry.CtrSpillEvents).Load())
}
