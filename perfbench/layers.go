package main

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"repro/internal/catalog"
	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/protocol"
	"repro/internal/server"
	"repro/internal/session"
	"repro/internal/sql"
	"repro/internal/telemetry"
	"repro/internal/types"
)

// frontEndLayers times the SQL front end on the workload's statements:
// lex+parse, normalization (the plan-cache key) and parse+plan.
func frontEndLayers(tr *tracer, cat *catalog.Catalog, stmts []string, n int, m map[string]float64) error {
	pick := func(i int) string { return stmts[i%len(stmts)] }
	parse, err := tr.probe("sql.parse", n, func(i int) error {
		_, err := sql.Parse(pick(i))
		return err
	})
	if err != nil {
		return err
	}
	norm, err := tr.probe("sql.normalize", n, func(i int) error {
		_, err := sql.Normalize(pick(i))
		return err
	})
	if err != nil {
		return err
	}
	comp, err := tr.probe("plan.compile", n, func(i int) error {
		_, err := plan.Compile(pick(i), cat)
		return err
	})
	if err != nil {
		return err
	}
	m["sql.parse_us"] = parse.us
	m["sql.parse_allocs"] = parse.allocs
	m["sql.normalize_us"] = norm.us
	m["plan.compile_us"] = comp.us
	m["plan.compile_allocs"] = comp.allocs
	return nil
}

// stmt is one statement the engine probes run, both ways a user can
// send it: prepared (text with $n slots, and its arguments) and ad hoc
// with the arguments inline. want is its row count, or -1 when the
// workload checks its answers elsewhere.
type stmt struct {
	prepared string
	args     []types.Value
	inline   string
	want     int
}

// olapStmts makes parameterless probe statements of OLAP queries.
func olapStmts(qs []namedQuery) []stmt {
	out := make([]stmt, len(qs))
	for i, q := range qs {
		out[i] = stmt{prepared: q.sql, inline: q.sql, want: -1}
	}
	return out
}

func inlineTexts(stmts []stmt) []string {
	out := make([]string, len(stmts))
	for i, s := range stmts {
		out[i] = s.inline
	}
	return out
}

// engineProbe runs the engine-layer probes of one workload on an
// in-process cluster: srv serves it, and conn, when not nil, is an
// EPQ1 session already open on a protocol server in front of srv.
type engineProbe struct {
	c     *engine.Cluster
	srv   *server.Server
	conn  *client.Conn
	stmts []stmt
	// n is the number of calls per probe, na the number of statements
	// run under EXPLAIN ANALYZE.
	n, na int
}

// run fills the session, bind, protocol, RunPlan, Run, elastic,
// scheduler, exchange and iterator metrics.
func (p engineProbe) run(ctx context.Context, tr *tracer, m map[string]float64) error {
	if p.conn == nil {
		ps, err := protocol.Serve("127.0.0.1:0", p.srv)
		if err != nil {
			return err
		}
		defer ps.Close()
		if p.conn, err = client.Dial(ps.Addr()); err != nil {
			return err
		}
		defer p.conn.Close()
	}
	sess := session.New(p.srv)
	plans := make([]*plan.Plan, len(p.stmts))
	for i, s := range p.stmts {
		name := "p" + strconv.Itoa(i)
		if _, err := sess.Prepare(name, s.prepared); err != nil {
			return fmt.Errorf("prepare %q: %w", s.prepared, err)
		}
		if _, err := p.conn.Prepare(name, s.prepared); err != nil {
			return fmt.Errorf("prepare %q over EPQ1: %w", s.prepared, err)
		}
		pl, err := plan.Compile(s.inline, p.c.Catalog())
		if err != nil {
			return fmt.Errorf("compile %q: %w", s.inline, err)
		}
		plans[i] = pl
	}
	check := func(s stmt, n int) error {
		if s.want >= 0 && n != s.want {
			return fmt.Errorf("wrong answer: %q returned %d rows, want %d", s.inline, n, s.want)
		}
		return nil
	}

	// The prepared statement three ways, interleaved per statement so
	// drift cancels: over the wire, in-process through a session on the
	// same server, and as a compiled plan with the arguments inline.
	// Differences of medians give the protocol's cost and what
	// EXECUTE's binding (and admission) adds to running a compiled plan.
	for i := 0; i < p.n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		j := i % len(p.stmts)
		s, name := p.stmts[j], "p"+strconv.Itoa(j)
		trace := tr.newTrace()
		start := time.Now()
		n, err := countRows(p.conn.Execute(name, s.args...))
		mid := time.Now()
		tr.record(trace, 0, "client.execute", start, mid)
		if err == nil {
			err = check(s, n)
		}
		if err != nil {
			return fmt.Errorf("client.execute probe: %w", err)
		}
		res, err := sess.Execute(ctx, name, s.args)
		end := time.Now()
		tr.record(trace, 0, "session.execute", mid, end)
		if err == nil {
			err = check(s, res.NumRows())
		}
		if err != nil {
			return fmt.Errorf("session.execute probe: %w", err)
		}
		res, err = p.c.RunPlan(plans[j])
		tr.record(trace, 0, "engine.run_plan", end, time.Now())
		if err == nil {
			err = check(s, res.NumRows())
		}
		if err != nil {
			return fmt.Errorf("run_plan probe: %w", err)
		}
	}
	wire := median(tr.micros("client.execute"))
	se := median(tr.micros("session.execute"))
	rp := median(tr.micros("engine.run_plan"))
	m["session.execute_us"] = se
	m["protocol.overhead_us"] = wire - se
	m["plan.bind_us"] = se - rp
	m["engine.run_plan_us"] = rp

	seCost, err := tr.probe("session.execute.allocs", p.n, func(i int) error {
		j := i % len(p.stmts)
		_, err := sess.Execute(ctx, "p"+strconv.Itoa(j), p.stmts[j].args)
		return err
	})
	if err != nil {
		return err
	}
	rpCost, err := tr.probe("engine.run_plan.allocs", p.n, func(i int) error {
		_, err := p.c.RunPlan(plans[i%len(plans)])
		return err
	})
	if err != nil {
		return err
	}
	m["session.execute_allocs"] = seCost.allocs
	m["engine.run_plan_allocs"] = rpCost.allocs
	m["engine.run_plan_bytes"] = rpCost.bytes

	// Ad-hoc Run under a scope of the benchmark's, with a sink counting
	// the elastic pools' expansions and shrinks.
	var expands, shrinks, decisions, schedNs, netBytes, peakMem int64
	run, err := tr.probe("engine.run", p.n, func(i int) error {
		sc := telemetry.NewScope("perfbench")
		sink := telemetry.NewMemSink(telemetry.KindWorkerExpand, telemetry.KindWorkerShrink)
		sc.Attach(sink)
		res, err := p.c.RunScoped(p.stmts[i%len(p.stmts)].inline, sc)
		if err != nil {
			return err
		}
		expands += int64(len(sink.OfKind(telemetry.KindWorkerExpand)))
		shrinks += int64(len(sink.OfKind(telemetry.KindWorkerShrink)))
		decisions += sc.CounterSnapshot()[telemetry.CtrSchedDecisions]
		schedNs += res.Stats.SchedOverhead.Nanoseconds()
		netBytes += res.Stats.NetworkBytes
		peakMem = max(peakMem, res.Stats.PeakMemoryBytes)
		return nil
	})
	if err != nil {
		return err
	}
	q := float64(p.n)
	m["engine.run_us"] = run.us
	m["elastic.expands_per_query"] = float64(expands) / q
	m["elastic.shrinks_per_query"] = float64(shrinks) / q
	m["sched.decisions_per_query"] = float64(decisions) / q
	m["sched.overhead_us_per_query"] = float64(schedNs) / 1e3 / q
	m["network.bytes_per_query"] = float64(netBytes) / q
	m["block.peak_mem_mb_max"] = float64(peakMem) / (1 << 20)
	return p.analyze(ctx, tr, m)
}

// countRows drains a streamed result and counts its rows.
func countRows(rows *client.Rows, err error) (int, error) {
	if err != nil {
		return 0, err
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		rows.Close()
		return n, err
	}
	return n, rows.Close()
}

// opKinds are the iterator kinds the analysis splits operator time by.
var opKinds = []string{"scan", "filter", "project", "hashjoin", "hashagg", "sort"}

// opKind maps a physical operator to its iterator kind, "" for
// operators without one (mergers, limits).
func opKind(op plan.PhysOp) string {
	switch op.(type) {
	case *plan.PScan:
		return "scan"
	case *plan.PFilter:
		return "filter"
	case *plan.PProject:
		return "project"
	case *plan.PHashJoin:
		return "hashjoin"
	case *plan.PHashAgg:
		return "hashagg"
	case *plan.PSort, *plan.PTopN:
		return "sort"
	}
	return ""
}

// analyze runs EXPLAIN ANALYZE on the statements and splits operator
// time by iterator kind: an operator's self time (its busy time minus
// its children's) per row it consumed, that is rows emitted for a scan
// and its children's rows otherwise. A kind the statements never run
// reports nothing.
func (p engineProbe) analyze(ctx context.Context, tr *tracer, m map[string]float64) error {
	selfNs := map[string]float64{}
	rowsIn := map[string]float64{}
	var scanned, results float64
	var stall time.Duration
	for i := 0; i < p.na; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		start := time.Now()
		res, an, err := p.c.ExplainAnalyze(p.stmts[i%len(p.stmts)].inline)
		tr.record(tr.newTrace(), 0, "engine.explain_analyze", start, time.Now())
		if err != nil {
			return fmt.Errorf("explain analyze: %w", err)
		}
		results += float64(res.NumRows())
		for _, seg := range an.Plan.Segments {
			plan.Walk(seg.Root, func(op plan.PhysOp) {
				kind := opKind(op)
				if kind == "" {
					return
				}
				rows, _, busy := an.OpStats(op)
				in := 0.0
				for _, ch := range plan.Children(op) {
					crows, _, cbusy := an.OpStats(ch)
					busy -= cbusy
					in += float64(crows)
				}
				if kind == "scan" {
					in = float64(rows)
					scanned += in
				}
				selfNs[kind] += float64(max(busy, 0).Nanoseconds())
				rowsIn[kind] += in
			})
		}
		for _, ex := range an.Plan.Exchanges {
			stall += an.ExchangeStall(ex.ID)
		}
	}
	var allNs, allRows float64
	for _, kind := range opKinds {
		if rowsIn[kind] > 0 {
			m["iterator."+kind+"_ns_per_row"] = selfNs[kind] / rowsIn[kind]
		}
		allNs += selfNs[kind]
		allRows += rowsIn[kind]
	}
	if allRows > 0 {
		m["iterator.ns_per_row"] = allNs / allRows
	}
	if results > 0 {
		m["engine.rows_scanned_per_result_row"] = scanned / results
	}
	m["network.stall_ms_per_query"] = float64(stall) / float64(time.Millisecond) / float64(p.na)
	return nil
}
