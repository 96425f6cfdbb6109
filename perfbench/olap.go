package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/sse"
	"repro/internal/tpch"
)

// olap-mix: one closed-loop client running SSE-Q6..Q9 and TPC-H Q1, Q3
// and Q6 in a fixed order on a 4-node in-process cluster.
const (
	olapSSERows = 200_000
	olapTPCHSF  = 0.03
	olapNodes   = 4
	// olapDeadline bounds one OLAP statement.
	olapDeadline = 30 * time.Second
)

// namedQuery is one OLAP statement of a workload.
type namedQuery struct{ name, sql string }

var olapQueries = []namedQuery{
	{"SSE-Q6", sse.Queries["SSE-Q6"]},
	{"SSE-Q7", sse.Queries["SSE-Q7"]},
	{"SSE-Q8", sse.Queries["SSE-Q8"]},
	{"SSE-Q9", sse.Queries["SSE-Q9"]},
	{"TPCH-Q1", tpch.Queries["Q1"]},
	{"TPCH-Q3", tpch.Queries["Q3"]},
	{"TPCH-Q6", tpch.Queries["Q6"]},
}

// answers records the fingerprint of every answer a class returned, to
// be checked against the reference after the timed window.
type answers struct {
	mu   sync.Mutex
	seen map[string]map[string]answer // class -> fingerprint key -> answer
}

type answer struct {
	fp    fingerprint
	count int
}

func (a *answers) add(class string, fp fingerprint) {
	key := fmt.Sprint(fp)
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.seen == nil {
		a.seen = map[string]map[string]answer{}
	}
	if a.seen[class] == nil {
		a.seen[class] = map[string]answer{}
	}
	e := a.seen[class][key]
	e.fp = fp
	e.count++
	a.seen[class][key] = e
}

// check compares every recorded answer with the reference and returns
// how many statements answered wrongly.
func (a *answers) check(ref map[string]fingerprint) (int, string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	wrong, first := 0, ""
	for class, byKey := range a.seen {
		for _, e := range byKey {
			if err := ref[class].check(e.fp); err != nil {
				wrong += e.count
				if first == "" {
					first = fmt.Sprintf("%s: %v", class, err)
				}
			}
		}
	}
	return wrong, first
}

// olapData sizes one OLAP data set; load generates it into a cluster.
type olapData struct {
	sseRows int
	tpchSF  float64
	seed    int64
}

func (d olapData) catalog(nodes int) *catalog.Catalog {
	cat := catalog.New(nodes)
	sse.RegisterTables(cat, int64(d.sseRows))
	if d.tpchSF > 0 {
		tpch.RegisterTables(cat, d.tpchSF)
	}
	return cat
}

func (d olapData) load(c *engine.Cluster) error {
	if err := sse.Load(c, sse.GenConfig{Rows: d.sseRows, Seed: d.seed}); err != nil {
		return err
	}
	if d.tpchSF > 0 {
		return tpch.Load(c, d.tpchSF, d.seed)
	}
	return nil
}

// reference computes every query's answer fingerprint on a separately
// built single-node in-process cluster over the same generated data.
// render makes the fingerprint from the text rendering claims-node
// returns instead of the typed values.
func (d olapData) reference(ctx context.Context, queries []namedQuery, render, tamper bool) (map[string]fingerprint, error) {
	c := engine.NewCluster(engine.Config{Nodes: 1}, d.catalog(1))
	defer c.Close()
	if err := d.load(c); err != nil {
		return nil, fmt.Errorf("load reference: %w", err)
	}
	ref := map[string]fingerprint{}
	for _, q := range queries {
		qctx, cancel := context.WithTimeout(ctx, olapDeadline)
		res, err := c.RunContext(qctx, q.sql)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", q.name, err)
		}
		fp := fingerprintResult(res)
		if render {
			fp = fingerprintStrings(renderRows(res))
		}
		if tamper {
			fp.rows++
		}
		ref[q.name] = fp
	}
	return ref, nil
}

type olapMix struct {
	o     options
	c     *engine.Cluster
	ans   *answers
	trace inprocTrace
}

func olapDataFor(o options) olapData {
	if o.small {
		return olapData{sseRows: 4_000, tpchSF: 0.002, seed: o.seed}
	}
	return olapData{sseRows: olapSSERows, tpchSF: olapTPCHSF, seed: o.seed}
}

func olapReference(ctx context.Context, o options) (map[string]fingerprint, error) {
	return olapDataFor(o).reference(ctx, olapQueries, false, o.tamper)
}

func setupOLAPMix(ctx context.Context, o options, ans *answers) (sut, error) {
	d := olapDataFor(o)
	s := &olapMix{o: o, ans: ans, c: engine.NewCluster(engine.Config{Nodes: olapNodes}, d.catalog(olapNodes))}
	s.trace.c = s.c
	if err := d.load(s.c); err != nil {
		s.c.Close()
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		s.c.Close()
		return nil, err
	}
	return s, nil
}

func (s *olapMix) clients() int { return 1 }

func (s *olapMix) classes() []string {
	var out []string
	for _, q := range olapQueries {
		out = append(out, q.name)
	}
	return out
}

func (s *olapMix) do(ctx context.Context, _, i int, tr *tracer) (string, time.Duration, error) {
	q := olapQueries[i%len(olapQueries)]
	qctx, cancel := context.WithTimeout(ctx, olapDeadline)
	defer cancel()
	start := time.Now()
	res, err := s.c.RunContext(qctx, q.sql)
	lat := time.Since(start)
	tr.record(tr.newTrace(), 0, "engine.run."+q.name, start, start.Add(lat))
	if err != nil {
		return q.name, lat, err
	}
	s.ans.add(q.name, fingerprintResult(res))
	return q.name, lat, nil
}

func (s *olapMix) peakRSS() (float64, error) { return peakRSSMB("self") }

func (s *olapMix) traceOn(context.Context) error  { s.trace.on(); return nil }
func (s *olapMix) traceOff(context.Context) error { s.trace.off(); return nil }

func (s *olapMix) layers(ctx context.Context, tr *tracer, t *tally, m map[string]float64) error {
	s.trace.fill(t.attempted, m)
	stmts := olapStmts(olapQueries)
	if err := frontEndLayers(tr, s.c.Catalog(), inlineTexts(stmts), 40*len(stmts), m); err != nil {
		return err
	}
	// olap-mix has no server or wire protocol of its own; the probe
	// puts both in front of the same cluster.
	p := engineProbe{c: s.c, srv: server.New(s.c, server.Config{}), stmts: stmts, n: 2 * len(stmts), na: len(stmts)}
	if err := p.run(ctx, tr, m); err != nil {
		return err
	}
	// Retries exist only on the TCP fabric, so the distributed probe's
	// count replaces the in-process path's zero.
	return distLayers(ctx, tr, s.o, olapDataFor(s.o), m)
}

func (s *olapMix) close() { s.c.Close() }
