// Command perfbench is the repository's benchmark: it runs one named
// workload against the engine through the entry points a user calls,
// checks every answer, and prints the workload's metrics. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off; with -trace 1 they are the per-layer ones, from a run
// that records spans around its calls into each layer and writes them,
// with the metrics, to -out. See README.md for the workloads and what
// each metric is expected to move.
//
// Run it through run.sh, which builds it and claims-node first:
//
//	bash perfbench/run.sh --workload serve-lookup --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off. BENCHMARK.json lists the same names.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"gmean_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the single-layer metrics of a traced run that every
// workload measures: the per-layer metrics of the JSON line, listed in
// BENCHMARK.json too.
var perLayer = []metricDef{
	{"sql.parse_us", "us"},
	{"sql.parse_allocs", "count"},
	{"sql.normalize_us", "us"},
	{"plan.compile_us", "us"},
	{"plan.compile_allocs", "count"},
	{"plan.cache_hit_ratio", "ratio"},
	{"plan.cache_evictions_per_kstmt", "count"},
	{"session.execute_us", "us"},
	{"session.execute_allocs", "count"},
	{"plan.bind_us", "us"},
	{"engine.run_plan_us", "us"},
	{"engine.run_plan_allocs", "count"},
	{"engine.run_plan_bytes", "B"},
	{"engine.run_us", "us"},
	{"protocol.overhead_us", "us"},
	{"go.gc_per_kstmt", "count"},
	{"iterator.ns_per_row", "ns"},
	{"engine.rows_scanned_per_result_row", "ratio"},
	{"elastic.expands_per_query", "count"},
	{"elastic.shrinks_per_query", "count"},
	{"sched.decisions_per_query", "count"},
	{"network.bytes_per_query", "B"},
	{"network.retries_per_kquery", "count"},
	{"block.peak_mem_mb_max", "MiB"},
	{"block.spill_events", "count"},
	{"telemetry.trace_overhead_ratio", "ratio"},
}

// workloadLayers are layer metrics that exist only on the workloads
// whose statements pass through the layer: an operator kind, the
// admission queue, the TCP fabric, the in-process exchange scheduler.
// A traced run prints the ones its workload measures and writes them,
// labelled with the workload, to its trace file; they stay out of the
// JSON line, where a workload without the layer would report a time
// that is always 0.
var workloadLayers = []metricDef{
	{"iterator.scan_ns_per_row", "ns"},
	{"iterator.filter_ns_per_row", "ns"},
	{"iterator.project_ns_per_row", "ns"},
	{"iterator.hashjoin_ns_per_row", "ns"},
	{"iterator.hashagg_ns_per_row", "ns"},
	{"iterator.sort_ns_per_row", "ns"},
	{"server.admit_wait_us.p50", "us"},
	{"server.admit_wait_us.p99", "us"},
	{"go.alloc_bytes_per_stmt", "B"},
	{"sched.overhead_us_per_query", "us"},
	{"network.stall_ms_per_query", "ms"},
	{"network.tcp_bytes_per_query", "B"},
	{"network.frames_per_batch", "ratio"},
	{"network.tcp_stall_ms_per_query", "ms"},
	{"network.dup_dropped", "count"},
	{"network.gap_dropped", "count"},
	{"cluster.control_ms", "ms"},
}

// runDeadline bounds a whole run, set-up included: the benchmark must
// exit within 180 s whatever the program does.
const runDeadline = 165 * time.Second

// killGrace is how long an interrupted or expired run may take to tear
// itself down before the nodes are killed from outside.
const killGrace = 10 * time.Second

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// nodeBin is the claims-node executable dist3-olap starts.
	nodeBin string
	// out is where a traced run writes its spans and metrics.
	out string

	// small shrinks data sizes and set-up repetitions; only the
	// benchmark's own tests set it, the command line cannot.
	small bool
	// tamper corrupts the expected answers, so every checked statement
	// must count as failed; only the negative test sets it.
	tamper bool
}

// report is one run's outcome.
type report struct {
	attempted, failed int
	firstErr          string
	// metrics are the contract metrics of the run's mode.
	metrics map[string]float64
	// extra are the workload's own breakdowns (per-class medians,
	// fail_ratio), printed for reading but not part of the JSON.
	extra map[string]float64
}

func main() { os.Exit(run()) }

func run() int {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: serve-lookup | olap-mix | dist3-olap")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated data and requests")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	flag.StringVar(&o.nodeBin, "claims-node", "", "claims-node executable (default: next to this binary)")
	flag.StringVar(&o.out, "out", "", "traced-run output file (default .bench_build/perfbench/trace-<workload>-seed<n>.json)")
	flag.Parse()
	o.trace = *trace == 1
	if _, ok := workloads[o.workload]; !ok || o.seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n", workloadNames())
		return 2
	}
	if o.nodeBin == "" {
		if exe, err := os.Executable(); err == nil {
			o.nodeBin = filepath.Join(filepath.Dir(exe), "claims-node")
		}
	}
	if o.out == "" {
		o.out = filepath.Join(".bench_build", "perfbench", fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	// Every wait in a run honours ctx, so an interrupt or the deadline
	// unwinds it and its deferred teardown stops the nodes. Should that
	// teardown itself hang, this kills them and exits anyway.
	go func() {
		<-ctx.Done()
		time.Sleep(killGrace)
		killAllNodes()
		fmt.Fprintln(os.Stderr, "perfbench: teardown did not finish; nodes killed")
		os.Exit(3)
	}()

	rep, err := runWorkload(ctx, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if err := printReport(o, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	return 0
}

// runWorkload sets the workload up, drives it and measures it. Every
// process and server it starts is stopped before it returns.
func runWorkload(ctx context.Context, o options) (*report, error) {
	wl := workloads[o.workload]
	if o.trace {
		return tracedRun(ctx, wl, o)
	}
	return endToEndRun(ctx, wl, o)
}

func printReport(o options, rep *report) error {
	units := map[string]string{}
	for _, defs := range [][]metricDef{endToEnd, perLayer, workloadLayers} {
		for _, d := range defs {
			units[d.name] = d.unit
		}
	}
	for _, name := range sortedKeys(rep.extra) {
		fmt.Printf("%s %s = %.6g %s\n", o.workload, name, rep.extra[name], units[name])
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, map[string]metric{}}
	for _, name := range sortedKeys(rep.metrics) {
		fmt.Printf("%s %s = %.6g %s\n", o.workload, name, rep.metrics[name], units[name])
		out.Metrics[name] = metric{rep.metrics[name], units[name]}
	}
	if rep.failed > 0 {
		fmt.Printf("%s FAILED %d of %d statements; first: %s\n", o.workload, rep.failed, rep.attempted, rep.firstErr)
	}
	if o.trace {
		fmt.Printf("%s trace written to %s\n", o.workload, o.out)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
