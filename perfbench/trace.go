package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the
// program. Spans of one statement or probe share a trace id; a child
// names its parent. Times are nanoseconds since the tracer started.
type span struct {
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// tracing switched off: every method is a no-op, so the untraced
// closed loop pays one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record stores a finished span and returns its id (0 when off).
func (t *tracer) record(trace, parent int64, name string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{
		Trace: trace, ID: t.next, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return t.next
}

// newTrace allocates a trace id for one statement or probe.
func (t *tracer) newTrace() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// micros returns the durations of every span with the name, in µs.
func (t *tracer) micros(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// probeCost is one layer's cost per call, from a probe.
type probeCost struct {
	us     float64 // median span duration
	allocs float64 // heap allocations per call
	bytes  float64 // heap bytes allocated per call
}

// probe calls f n times, each under a span of the given name, and
// returns the layer's median time and its allocations per call. The
// allocation counts are process-wide deltas, so they include whatever
// the cluster's background goroutines allocated meanwhile; probes run
// one call at a time to keep that small.
func (t *tracer) probe(name string, n int, f func(i int) error) (probeCost, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		start := time.Now()
		err := f(i)
		t.record(t.newTrace(), 0, name, start, time.Now())
		if err != nil {
			return probeCost{}, fmt.Errorf("%s probe: %w", name, err)
		}
	}
	runtime.ReadMemStats(&after)
	return probeCost{
		us:     median(t.micros(name)),
		allocs: float64(after.Mallocs-before.Mallocs) / float64(n),
		bytes:  float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
	}, nil
}

// traceFile is what a traced run writes: its per-layer metrics and
// every span, labelled with the workload and seed.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Metrics  map[string]float64 `json:"metrics"`
	Extra    map[string]float64 `json:"extra,omitempty"`
	Spans    []span             `json:"spans"`
}

func (t *tracer) write(path string, tf traceFile) error {
	t.mu.Lock()
	tf.Spans = t.spans
	t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
