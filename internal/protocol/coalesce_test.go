package protocol_test

import (
	"net"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/catalog"
	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/protocol"
	"repro/internal/session"
	"repro/internal/types"
)

// countingListener wraps every accepted connection so the test can
// count the server's socket writes.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, writes: l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1) // before the bytes can reach the peer
	return c.Conn.Write(p)
}

// startCounting serves a cluster holding rows trades rows and returns a
// connected client plus the server's write counter.
func startCounting(t *testing.T, rows int) (*client.Conn, *engine.Cluster, *atomic.Int64) {
	t.Helper()
	cat := catalog.New(2)
	sch := types.NewSchema(
		types.Col("acct_id", types.Int64),
		types.Col("sec_code", types.Int64),
		types.Col("trade_volume", types.Float64),
	)
	cat.MustAdd(&catalog.Table{Name: "trades", Schema: sch, PartKey: []int{1}})
	c := engine.NewCluster(engine.Config{Nodes: 2, CoresPerNode: 2}, cat)
	t.Cleanup(c.Close)
	tl, err := c.NewTableLoader("trades")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		r := tl.Row()
		types.PutValue(r, sch, 0, types.IntVal(int64(i)))
		types.PutValue(r, sch, 1, types.IntVal(int64(i%50)))
		types.PutValue(r, sch, 2, types.FloatVal(float64(i)/4))
		tl.Add()
	}
	tl.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	writes := new(atomic.Int64)
	srv := protocol.ServeListener(countingListener{Listener: ln, writes: writes}, session.Direct{C: c})
	t.Cleanup(func() { srv.Close() })
	conn, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn, c, writes
}

// readAll drains a result stream into sorted row strings.
func readAll(t *testing.T, rows *client.Rows, err error) []string {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for rows.Next() {
		var parts []string
		for _, v := range rows.Row() {
			parts = append(parts, v.String())
		}
		out = append(out, strings.Join(parts, "|"))
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

// TestResponseIsOneWrite pins the buffered server: a point lookup's
// whole response (Schema, Block, Done), a PREPARE's OK and a statement
// error each reach the socket in exactly one Write.
func TestResponseIsOneWrite(t *testing.T) {
	conn, _, writes := startCounting(t, 1000)
	const lookup = "SELECT acct_id, trade_volume FROM trades WHERE sec_code = "
	check := func(what string) {
		t.Helper()
		if n := writes.Swap(0); n != 1 {
			t.Errorf("%s: %d socket writes, want 1", what, n)
		}
	}

	writes.Store(0)
	rows, err := conn.Query(lookup + "7")
	if got := readAll(t, rows, err); len(got) != 20 {
		t.Fatalf("lookup returned %d rows, want 20", len(got))
	}
	check("ad-hoc lookup")

	if _, err := conn.Prepare("lk", lookup+"$1"); err != nil {
		t.Fatal(err)
	}
	check("PREPARE")

	rows, err = conn.Execute("lk", types.IntVal(7))
	if got := readAll(t, rows, err); len(got) != 20 {
		t.Fatalf("EXECUTE returned %d rows, want 20", len(got))
	}
	check("prepared lookup")

	if _, err := conn.Query("SELECT * FROM no_such_table"); err == nil {
		t.Fatal("query against a missing table should fail")
	}
	check("statement error")
}

// TestLargeResultStreams sends a result several times the write buffer:
// it leaves in several flushes and arrives identical to the in-process
// result.
func TestLargeResultStreams(t *testing.T) {
	const n = 4000 // 24 bytes each: about 6 write buffers
	conn, c, writes := startCounting(t, n)
	const q = "SELECT acct_id, sec_code, trade_volume FROM trades"
	writes.Store(0)
	rows, err := conn.Query(q)
	got := readAll(t, rows, err)
	if w := writes.Load(); w < 2 {
		t.Errorf("a %d-row result took %d socket writes, want several", n, w)
	}
	local, err := c.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, vals := range local.Rows() {
		var parts []string
		for _, v := range vals {
			parts = append(parts, v.String())
		}
		want = append(want, strings.Join(parts, "|"))
	}
	sort.Strings(want)
	if len(got) != n || strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("wire result (%d rows) differs from in-process (%d rows)", len(got), len(want))
	}
}
