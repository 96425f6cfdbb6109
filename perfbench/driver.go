package main

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// workload builds one system under test. Set-up includes everything up
// to the first timed request: generating and loading data, starting
// servers or processes, converging membership and the warm-up
// statements. Answers that cannot be checked on the spot go into ans,
// to be checked against reference once all timing is done.
type workload struct {
	setup func(ctx context.Context, o options, ans *answers) (sut, error)
	// reference computes the expected fingerprint of every statement
	// class; nil when do checks every answer itself.
	reference func(ctx context.Context, o options) (map[string]fingerprint, error)
	// warm is the number of warm-up statements per client, the last
	// step of set-up: enough for caches to fill and lazy set-up to
	// finish before the timed window.
	warm int
}

// sut is a running system under test.
type sut interface {
	// clients is the number of closed-loop clients.
	clients() int
	// do runs client c's i-th statement and checks its answer. lat is
	// the statement's latency at the client; a non-nil error (failure,
	// wrong answer, missed deadline) counts the statement as failed.
	// tr is nil outside the traced window.
	do(ctx context.Context, c, i int, tr *tracer) (class string, lat time.Duration, err error)
	// classes lists the statement classes in report order.
	classes() []string
	// peakRSS is the peak resident set, in MiB, of the process(es)
	// serving queries.
	peakRSS() (float64, error)
	// traceOn and traceOff bracket each traced window: they snapshot the
	// counters the program exposes and accumulate their change over
	// the window. layers then probes each layer and fills the per-layer
	// metrics, using the traced windows' tally.
	traceOn(ctx context.Context) error
	traceOff(ctx context.Context) error
	layers(ctx context.Context, tr *tracer, t *tally, m map[string]float64) error
	close()
}

var workloads = map[string]workload{
	"serve-lookup": {setup: setupServeLookup, warm: 200},
	"olap-mix":     {setup: setupOLAPMix, reference: olapReference, warm: len(olapQueries)},
	"dist3-olap":   {setup: setupDist3, reference: distReference, warm: 12},
}

// instances is how many times an end-to-end run sets the system up,
// measuring each instance for an equal share of the window. Some
// timings are a property of one instance: on dist3-olap SSE-Q6 takes
// about 5 ms in some clusters and about 26 ms in others, for the whole
// life of the cluster. Pooling ten instances makes a run's figures
// steady, and reports how often the slow case happens rather than
// whether one instance hit it.
const instances = 10

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, " | ")
}

// closedLoop drives every client back to back for the window: each
// client sends its next statement only when the previous one returned.
func closedLoop(ctx context.Context, s sut, window time.Duration, tr *tracer) *tally {
	n := s.clients()
	per := make([]tally, n)
	start := time.Now()
	end := start.Add(window)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &per[c]
			for i := 0; time.Now().Before(end) && ctx.Err() == nil; i++ {
				class, lat, err := s.do(ctx, c, i, tr)
				if err != nil {
					t.fail(class, err)
				} else {
					t.ok(class, lat)
				}
			}
		}(c)
	}
	wg.Wait()
	total := &tally{window: time.Since(start)}
	for c := range per {
		total.add(&per[c])
	}
	return total
}

// warmUp runs n statements per client outside any measurement. Their
// answers are checked like any other.
func warmUp(ctx context.Context, s sut, n int) *tally {
	total := &tally{}
	for c := 0; c < s.clients(); c++ {
		for i := 0; i < n; i++ {
			class, lat, err := s.do(ctx, c, i, nil)
			if err != nil {
				total.fail(class, err)
			} else {
				total.ok(class, lat)
			}
		}
	}
	total.lat = nil
	return total
}

// setUp builds and warms the system once and reports how long that
// took, with the warm-up statements' tally.
func setUp(ctx context.Context, wl workload, o options, ans *answers) (sut, time.Duration, *tally, error) {
	start := time.Now()
	s, err := wl.setup(ctx, o, ans)
	if err != nil {
		return nil, 0, nil, err
	}
	warm := warmUp(ctx, s, wl.warm)
	return s, time.Since(start), warm, nil
}

// endToEndRun measures the end-to-end metrics with tracing off, over
// several instances of the system.
func endToEndRun(ctx context.Context, wl workload, o options) (*report, error) {
	n := instances
	if o.small {
		n = 2
	}
	window := time.Duration(o.seconds) * time.Second / time.Duration(n)
	var ans answers
	var setupS []float64
	var classes []string
	warm, t := &tally{}, &tally{}
	rss := 0.0
	for k := 0; k < n; k++ {
		s, d, w, err := setUp(ctx, wl, o, &ans)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, d.Seconds())
		warm.add(w)
		t.merge(closedLoop(ctx, s, window, nil))
		mb, err := s.peakRSS()
		classes = s.classes()
		s.close()
		if err != nil {
			return nil, err
		}
		rss = max(rss, mb)
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("timed window: %w", err)
		}
		// Return the torn-down instance's memory, so the next one's
		// peak RSS does not carry it.
		debug.FreeOSMemory()
	}
	rep, err := finish(ctx, wl, o, &ans, warm, t)
	if err != nil {
		return nil, err
	}

	var classMedians []float64
	for _, class := range classes {
		m := median(t.millis(class))
		rep.extra[classMetric(o.workload, class)] = m
		if m > 0 {
			classMedians = append(classMedians, m)
		}
	}
	rep.metrics = map[string]float64{
		"setup_s":     median(setupS),
		"qps":         t.qps(),
		"p50_ms":      quantile(t.millis(""), 0.50),
		"p99_ms":      quantile(t.millis(""), 0.99),
		"gmean_ms":    gmean(classMedians),
		"peak_rss_mb": rss,
	}
	rep.extra["statements"] = float64(t.completed())
	return rep, nil
}

// classMetric names a class's median latency: p50_ms.<class> for the
// lookup's prepared/adhoc split, query_ms.<query> for OLAP queries.
func classMetric(workload, class string) string {
	if workload == "serve-lookup" {
		return "p50_ms." + class
	}
	return "query_ms." + class
}

// traceRounds is how many untraced/traced window pairs a traced run
// alternates, so drift over the run lands on both sides of the tracing
// overhead ratio.
const traceRounds = 4

// tracedRun measures the per-layer metrics: untraced and traced windows
// in alternation, half the run each, then one probe per layer.
func tracedRun(ctx context.Context, wl workload, o options) (*report, error) {
	var ans answers
	s, _, warm, err := setUp(ctx, wl, o, &ans)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer s.close()

	window := time.Duration(o.seconds) * time.Second / (2 * traceRounds)
	untraced, traced := &tally{}, &tally{}
	tr := newTracer()
	for r := 0; r < traceRounds; r++ {
		u := closedLoop(ctx, s, window, nil)
		if err := s.traceOn(ctx); err != nil {
			return nil, err
		}
		t := closedLoop(ctx, s, window, tr)
		if err := s.traceOff(ctx); err != nil {
			return nil, err
		}
		untraced.merge(u)
		traced.merge(t)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("timed window: %w", err)
	}
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0
	}
	if err := s.layers(ctx, tr, traced, m); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	untracedQPS, tracedQPS := untraced.qps(), traced.qps()
	if tracedQPS > 0 {
		m["telemetry.trace_overhead_ratio"] = untracedQPS / tracedQPS
	}
	untraced.add(traced)
	rep, err := finish(ctx, wl, o, &ans, warm, untraced)
	if err != nil {
		return nil, err
	}
	rep.extra["untraced_qps"] = untracedQPS
	rep.extra["traced_qps"] = tracedQPS
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("layer metric %s is %v", k, v)
		}
	}
	if err := tr.write(o.out, traceFile{Workload: o.workload, Seed: o.seed, Metrics: m, Extra: rep.extra}); err != nil {
		return nil, err
	}
	// The JSON line carries the every-workload metrics; the workload's
	// own layer metrics are printed with the breakdowns.
	rep.metrics = map[string]float64{}
	for k, v := range m {
		rep.extra[k] = v
	}
	for _, d := range perLayer {
		rep.metrics[d.name] = m[d.name]
		delete(rep.extra, d.name)
	}
	return rep, nil
}

// finish checks the recorded answers against the workload's reference
// and folds warm-up and timed statements into one report.
func finish(ctx context.Context, wl workload, o options, ans *answers, warm, t *tally) (*report, error) {
	wrong, firstWrong := 0, ""
	if wl.reference != nil {
		ref, err := wl.reference(ctx, o)
		if err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
		wrong, firstWrong = ans.check(ref)
	}
	rep := &report{
		attempted: warm.attempted + t.attempted,
		failed:    warm.failed + t.failed + wrong,
		firstErr:  firstNonEmpty(warm.firstErr, t.firstErr, firstWrong),
		extra:     map[string]float64{},
	}
	rep.extra["fail_ratio"] = float64(rep.failed) / float64(max(rep.attempted, 1))
	return rep, nil
}

func firstNonEmpty(s ...string) string {
	for _, x := range s {
		if x != "" {
			return x
		}
	}
	return ""
}
