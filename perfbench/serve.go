package main

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/protocol"
	"repro/internal/server"
	"repro/internal/sse"
	"repro/internal/types"
)

// serve-lookup: EPQ1 clients over loopback TCP to protocol.Serve ->
// server.Server -> a 4-node in-process cluster, each statement a point
// lookup on sec_code, half prepared EXECUTE and half ad-hoc SQL.
const (
	lookupRows    = 20_000
	lookupNodes   = 4
	lookupClients = 2
	lookupSQL     = "SELECT acct_id, order_price, trade_volume FROM trades WHERE sec_code = "
	// secCodes is the number of distinct sec_codes the generator draws
	// from (600000..600999): more distinct ad-hoc texts than the plan
	// cache's 256 entries.
	secCodes = 1000
	// stmtDeadline bounds one statement; a statement that has not
	// returned by then has its connection closed and counts as failed.
	stmtDeadline = 10 * time.Second
)

type serveLookup struct {
	o     options
	c     *engine.Cluster
	srv   *server.Server
	ps    *protocol.Server
	conns []*client.Conn
	rngs  []*rand.Rand
	// want is the number of trades rows per sec_code, counted from the
	// generated rows.
	want  map[int64]int
	trace inprocTrace
}

func setupServeLookup(ctx context.Context, o options, _ *answers) (sut, error) {
	rows := lookupRows
	if o.small {
		rows = 2_000
	}
	cat := catalog.New(lookupNodes)
	sse.RegisterTables(cat, int64(rows))
	s := &serveLookup{o: o, c: engine.NewCluster(engine.Config{Nodes: lookupNodes}, cat)}
	s.trace.c = s.c
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	var err error
	if s.want, err = loadLookupData(s.c, rows, o.seed); err != nil {
		return nil, err
	}
	s.srv = server.New(s.c, server.Config{})
	if s.ps, err = protocol.Serve("127.0.0.1:0", s.srv); err != nil {
		return nil, err
	}
	for c := 0; c < lookupClients; c++ {
		conn, err := s.dial()
		if err != nil {
			return nil, err
		}
		s.conns = append(s.conns, conn)
		s.rngs = append(s.rngs, rand.New(rand.NewSource(o.seed*7919+int64(c))))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ok = true
	return s, nil
}

// dial opens one client session and prepares the lookup on it.
func (s *serveLookup) dial() (*client.Conn, error) {
	conn, err := client.Dial(s.ps.Addr())
	if err != nil {
		return nil, err
	}
	if _, err := conn.Prepare("lk", lookupSQL+"$1"); err != nil {
		conn.Close()
		return nil, fmt.Errorf("prepare lookup: %w", err)
	}
	return conn, nil
}

// loadLookupData generates the SSE tables with the distributions of
// internal/sse (uniform sec_codes, ~200 rows per account, 60 days of
// dates), loads them through the cluster's table loaders and returns
// the number of trades rows per sec_code.
func loadLookupData(c *engine.Cluster, rows int, seed int64) (map[int64]int, error) {
	rng := rand.New(rand.NewSource(seed))
	accounts := rows/200 + 1
	day := func() types.Value { return types.DateVal(sse.ReportDate - int64(rng.Intn(60))) }

	ss := sse.SecuritiesSchema()
	sl, err := c.NewTableLoader("securities")
	if err != nil {
		return nil, err
	}
	for i := 0; i < rows; i++ {
		r := sl.Row()
		types.PutValue(r, ss, 0, types.IntVal(int64(i)))
		types.PutValue(r, ss, 1, types.IntVal(int64(rng.Intn(accounts))))
		types.PutValue(r, ss, 2, types.IntVal(int64(600000+rng.Intn(secCodes))))
		types.PutValue(r, ss, 3, day())
		types.PutValue(r, ss, 4, types.FloatVal(float64(rng.Intn(100000))/10))
		sl.Add()
	}
	sl.Close()

	want := make(map[int64]int, secCodes)
	ts := sse.TradesSchema()
	tl, err := c.NewTableLoader("trades")
	if err != nil {
		return nil, err
	}
	for i := 0; i < rows; i++ {
		sec := int64(600000 + rng.Intn(secCodes))
		want[sec]++
		r := tl.Row()
		types.PutValue(r, ts, 0, types.IntVal(int64(rng.Intn(accounts))))
		types.PutValue(r, ts, 1, types.IntVal(sec))
		types.PutValue(r, ts, 2, day())
		types.PutValue(r, ts, 3, types.IntVal(int64(rng.Intn(86400))))
		types.PutValue(r, ts, 4, types.FloatVal(float64(rng.Intn(10000))/100))
		types.PutValue(r, ts, 5, types.FloatVal(float64(rng.Intn(100000))/10))
		tl.Add()
	}
	tl.Close()
	return want, nil
}

func (s *serveLookup) clients() int      { return lookupClients }
func (s *serveLookup) classes() []string { return []string{"prepared", "adhoc"} }

// wantRows is the checked row count of a lookup.
func (s *serveLookup) wantRows(k int64) int {
	if s.o.tamper {
		return s.want[k] + 1
	}
	return s.want[k]
}

func (s *serveLookup) do(ctx context.Context, c, i int, tr *tracer) (string, time.Duration, error) {
	rng := s.rngs[c]
	k := int64(600000 + rng.Intn(secCodes))
	class := "adhoc"
	if rng.Intn(2) == 0 {
		class = "prepared"
	}
	conn := s.conns[c]
	var expired atomic.Bool
	timer := time.AfterFunc(stmtDeadline, func() {
		expired.Store(true)
		conn.Close()
	})
	start := time.Now()
	n, err := lookup(conn, class == "prepared", k)
	lat := time.Since(start)
	timer.Stop()
	tr.record(tr.newTrace(), 0, "client."+class, start, start.Add(lat))
	if expired.Load() {
		err = fmt.Errorf("lookup %d missed the %v deadline", k, stmtDeadline)
	}
	if err != nil {
		// The session may be broken; start a fresh one for the next
		// statement.
		conn.Close()
		if fresh, derr := s.dial(); derr == nil {
			s.conns[c] = fresh
		}
		return class, lat, err
	}
	if want := s.wantRows(k); n != want {
		return class, lat, fmt.Errorf("wrong answer: sec_code %d returned %d rows, want %d", k, n, want)
	}
	return class, lat, ctx.Err()
}

// lookup runs one lookup, prepared or ad hoc, and counts its rows.
func lookup(conn *client.Conn, prepared bool, k int64) (int, error) {
	if prepared {
		return countRows(conn.Execute("lk", types.IntVal(k)))
	}
	return countRows(conn.Query(lookupSQL + strconv.FormatInt(k, 10)))
}

func (s *serveLookup) peakRSS() (float64, error) { return peakRSSMB("self") }

func (s *serveLookup) traceOn(context.Context) error  { s.trace.on(); return nil }
func (s *serveLookup) traceOff(context.Context) error { s.trace.off(); return nil }

func (s *serveLookup) layers(ctx context.Context, tr *tracer, t *tally, m map[string]float64) error {
	s.trace.fill(t.attempted, m)
	// The probes cycle over a fixed sample of the workload's keys.
	rng := rand.New(rand.NewSource(s.o.seed))
	stmts := make([]stmt, 256)
	adhoc := make([]string, len(stmts))
	for i := range stmts {
		k := int64(600000 + rng.Intn(secCodes))
		adhoc[i] = lookupSQL + strconv.FormatInt(k, 10)
		stmts[i] = stmt{prepared: lookupSQL + "$1", args: []types.Value{types.IntVal(k)}, inline: adhoc[i], want: s.want[k]}
	}
	if err := frontEndLayers(tr, s.c.Catalog(), adhoc, 2000, m); err != nil {
		return err
	}
	return engineProbe{c: s.c, srv: s.srv, conn: s.conns[0], stmts: stmts, n: 1000, na: 16}.run(ctx, tr, m)
}

func (s *serveLookup) close() {
	for _, conn := range s.conns {
		conn.Close()
	}
	if s.ps != nil {
		s.ps.Close()
	}
	s.c.Close()
}
