package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/server"
)

// dist3-olap: three claims-node processes on loopback (a seed and two
// joiners, reliable TCP fabric, membership), one closed-loop client
// cycling SSE-Q6..Q9 through POST /query and rotating the coordinator.
const (
	distNodes   = 3
	distSSERows = 100_000
	// distDeadline bounds one statement, HTTP round trip included.
	distDeadline = 30 * time.Second
	// scrapeEvery is how many traced statements pass between /metrics
	// scrapes. Each node's /metrics keeps the scopes of its 32 most
	// recent queries, and every statement adds one per node.
	scrapeEvery = 8
)

var distQueries = olapQueries[:4] // SSE-Q6..Q9

type dist3 struct {
	data  olapData
	nodes []*nodeProc
	hc    *http.Client
	ans   *answers

	// Traced windows: per-node scope counters by query, which queries
	// ran in traced and which in untraced windows, the nodes' Go
	// collections, and per-statement timings. The one client goroutine
	// and the driver between windows take turns on them.
	scopes    map[string]map[string]float64 // "node/query" -> instrument -> value
	included  map[string]bool
	excluded  map[string]bool
	gc        map[int]float64 // node -> Go collections so far
	gc0, gcs  float64
	controlMS []float64
	runMS     []float64
	traced    int
}

func distDataFor(o options) olapData {
	if o.small {
		return olapData{sseRows: 4_000, seed: o.seed}
	}
	return olapData{sseRows: distSSERows, seed: o.seed}
}

// distReference is checked against the text claims-node returns.
func distReference(ctx context.Context, o options) (map[string]fingerprint, error) {
	return distDataFor(o).reference(ctx, distQueries, true, o.tamper)
}

func setupDist3(ctx context.Context, o options, ans *answers) (sut, error) {
	return startDist3(ctx, o, distDataFor(o), ans)
}

// startDist3 starts a 3-node claims-node cluster over the SSE data d
// and waits until every node sees all nodes alive.
func startDist3(ctx context.Context, o options, d olapData, ans *answers) (*dist3, error) {
	s := &dist3{data: d, ans: ans, hc: &http.Client{Timeout: distDeadline}}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	seed, err := spawnNode(o.nodeBin, 0, "-nodes", strconv.Itoa(distNodes),
		"-rows", strconv.Itoa(d.sseRows), "-gen-seed", strconv.FormatInt(d.seed, 10))
	if err != nil {
		return nil, err
	}
	s.nodes = append(s.nodes, seed)
	if err := seed.waitReady(ctx); err != nil {
		return nil, err
	}
	for id := 1; id < distNodes; id++ {
		p, err := spawnNode(o.nodeBin, id, "-seed", seed.ctl)
		if err != nil {
			return nil, err
		}
		s.nodes = append(s.nodes, p)
	}
	for _, p := range s.nodes[1:] {
		if err := p.waitReady(ctx); err != nil {
			return nil, err
		}
	}
	if err := s.waitAllAlive(ctx); err != nil {
		return nil, err
	}
	ok = true
	return s, nil
}

// waitAllAlive polls every node's own membership view until each sees
// all nodes alive: a coordinator fans a query out to the members of
// its view, so a partial view would run on fewer partitions.
func (s *dist3) waitAllAlive(ctx context.Context) error {
	deadline := time.Now().Add(readyTimeout)
	for _, p := range s.nodes {
		for {
			var v cluster.View
			err := s.getJSON(ctx, p.ctl, "/view", &v)
			if err == nil && len(v.Alive()) == distNodes {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("node %d: membership did not converge on %d alive nodes (last error %v)", p.id, distNodes, err)
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(20 * time.Millisecond):
			}
		}
	}
	return nil
}

func (s *dist3) getJSON(ctx context.Context, addr, path string, v any) error {
	body, err := s.get(ctx, addr, path)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

func (s *dist3) get(ctx context.Context, addr, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, err
}

func (s *dist3) clients() int { return 1 }

func (s *dist3) classes() []string {
	var out []string
	for _, q := range distQueries {
		out = append(out, q.name)
	}
	return out
}

// queryReply is the part of claims-node's POST /query reply the
// benchmark reads.
type queryReply struct {
	Rows       [][]string `json:"rows"`
	RowCount   int        `json:"row_count"`
	DurationMS float64    `json:"duration_ms"`
	Error      string     `json:"error"`
}

func (s *dist3) do(ctx context.Context, _, i int, tr *tracer) (string, time.Duration, error) {
	q := distQueries[i%len(distQueries)]
	node := s.nodes[i%len(s.nodes)]
	body, _ := json.Marshal(map[string]string{"sql": q.sql}) // a string map always marshals
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+node.ctl+"/query", bytes.NewReader(body))
	if err != nil {
		return q.name, 0, err
	}
	start := time.Now()
	resp, err := s.hc.Do(req)
	var reply queryReply
	if err == nil {
		err = json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
	}
	lat := time.Since(start)
	if err != nil {
		return q.name, lat, err
	}
	if reply.Error != "" || resp.StatusCode != http.StatusOK {
		return q.name, lat, fmt.Errorf("node %d: %s %s", node.id, resp.Status, reply.Error)
	}
	if len(reply.Rows) != reply.RowCount {
		return q.name, lat, fmt.Errorf("wrong answer: %d rows but row_count %d", len(reply.Rows), reply.RowCount)
	}
	s.ans.add(q.name, fingerprintStrings(reply.Rows))
	if tr != nil {
		tr.record(tr.newTrace(), 0, "http.query."+q.name, start, start.Add(lat))
		s.controlMS = append(s.controlMS, float64(lat)/float64(time.Millisecond)-reply.DurationMS)
		s.runMS = append(s.runMS, reply.DurationMS)
		if s.traced++; s.traced%scrapeEvery == 0 {
			if err := s.scrape(ctx); err != nil {
				return q.name, lat, err
			}
		}
	}
	return q.name, lat, nil
}

func (s *dist3) peakRSS() (float64, error) {
	sum := 0.0
	for _, p := range s.nodes {
		mb, err := peakRSSMB(strconv.Itoa(p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

// scrape reads every node's /metrics and keeps the per-query scope
// counters and gauge peaks, keyed by node and query.
func (s *dist3) scrape(ctx context.Context) error {
	if s.scopes == nil {
		s.scopes = map[string]map[string]float64{}
		s.gc = map[int]float64{}
	}
	for _, p := range s.nodes {
		body, err := s.get(ctx, p.ctl, "/metrics")
		if err != nil {
			return fmt.Errorf("scrape node %d: %w", p.id, err)
		}
		sc := bufio.NewScanner(bytes.NewReader(body))
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			family, labels, v, ok := parseSample(sc.Text())
			switch {
			case !ok:
			case family == "claims_go_gc_runs_total":
				s.gc[p.id] = v
			case family == "claims_scope_counter" || family == "claims_scope_gauge_peak":
				key := fmt.Sprintf("%d/%s", p.id, labels["query"])
				if s.scopes[key] == nil {
					s.scopes[key] = map[string]float64{}
				}
				s.scopes[key][labels["name"]] = v
			}
		}
		if err := sc.Err(); err != nil {
			return fmt.Errorf("scrape node %d: %w", p.id, err)
		}
	}
	return nil
}

// parseSample parses one Prometheus text sample line.
func parseSample(line string) (family string, labels map[string]string, v float64, ok bool) {
	if line == "" || line[0] == '#' {
		return "", nil, 0, false
	}
	sp := strings.LastIndexByte(line, ' ')
	if sp < 0 {
		return "", nil, 0, false
	}
	v, err := strconv.ParseFloat(line[sp+1:], 64)
	if err != nil {
		return "", nil, 0, false
	}
	name := line[:sp]
	labels = map[string]string{}
	if i := strings.IndexByte(name, '{'); i >= 0 {
		for _, kv := range strings.Split(strings.TrimSuffix(name[i+1:], "}"), ",") {
			if k, val, found := strings.Cut(kv, "="); found {
				labels[k] = strings.Trim(val, `"`)
			}
		}
		name = name[:i]
	}
	return name, labels, v, true
}

func (s *dist3) gcRuns() float64 {
	total := 0.0
	for _, v := range s.gc {
		total += v
	}
	return total
}

// traceOn excludes every query scope visible now, from the untraced
// windows, from the traced totals.
func (s *dist3) traceOn(ctx context.Context) error {
	if err := s.scrape(ctx); err != nil {
		return err
	}
	if s.excluded == nil {
		s.excluded = map[string]bool{}
	}
	for key := range s.scopes {
		if !s.included[key] {
			s.excluded[key] = true
		}
	}
	s.gc0 = s.gcRuns()
	return nil
}

// traceOff takes the traced window's final counters.
func (s *dist3) traceOff(ctx context.Context) error {
	if err := s.scrape(ctx); err != nil {
		return err
	}
	if s.included == nil {
		s.included = map[string]bool{}
	}
	for key := range s.scopes {
		if !s.excluded[key] {
			s.included[key] = true
		}
	}
	s.gcs += s.gcRuns() - s.gc0
	return nil
}

func (s *dist3) layers(ctx context.Context, tr *tracer, t *tally, m map[string]float64) error {
	stmts := olapStmts(distQueries)
	cat := s.data.catalog(distNodes)
	if err := frontEndLayers(tr, cat, inlineTexts(stmts), 40*len(stmts), m); err != nil {
		return err
	}
	// The nodes expose no per-layer timings of their own, so the layers
	// under the control plane (session, bind, RunPlan, Run, operators,
	// elastic pools) are probed on an in-process cluster of the same
	// shape over the same data.
	c := engine.NewCluster(engine.Config{Nodes: distNodes}, cat)
	defer c.Close()
	if err := s.data.load(c); err != nil {
		return err
	}
	p := engineProbe{c: c, srv: server.New(c, server.Config{}), stmts: stmts, n: 2 * len(stmts), na: len(stmts)}
	if err := p.run(ctx, tr, m); err != nil {
		return err
	}

	// The rest is what the deployment itself measured.
	sum, peakMem := s.wireLayers(m)
	m["block.peak_mem_mb_max"] = peakMem / (1 << 20)
	m["network.bytes_per_query"] = m["network.tcp_bytes_per_query"]
	m["sched.overhead_us_per_query"] = sum["sched.overhead_ns"] / 1e3 / float64(max(s.traced, 1))
	m["sched.decisions_per_query"] = sum["sched.decisions"] / float64(max(s.traced, 1))
	m["block.spill_events"] = sum["mem.spill.events"]
	m["go.gc_per_kstmt"] = s.gcs * 1000 / float64(max(t.attempted, 1))
	// The control plane is this workload's wire protocol: what a client
	// waits for beyond the coordinator's own execution time.
	m["protocol.overhead_us"] = m["cluster.control_ms"] * 1e3
	m["engine.run_us"] = median(s.runMS) * 1e3
	// The probe cluster's in-process exchange is not this workload's.
	delete(m, "network.stall_ms_per_query")
	return nil
}

// wireLayers fills the TCP fabric and control-plane metrics from the
// nodes' per-query scope counters over the traced windows and the
// /query replies. It returns the counters' sums and the highest
// per-query memory peak.
func (s *dist3) wireLayers(m map[string]float64) (map[string]float64, float64) {
	sum := map[string]float64{}
	peakMem := 0.0
	for key, ctrs := range s.scopes {
		if !s.included[key] {
			continue
		}
		for name, v := range ctrs {
			sum[name] += v
		}
		peakMem = max(peakMem, ctrs["mem.bytes"])
	}
	n := float64(max(s.traced, 1))
	m["network.tcp_bytes_per_query"] = sum["net.bytes"] / n
	m["network.retries_per_kquery"] = sum["net.retries"] * 1000 / n
	if sum["net.batches"] > 0 {
		m["network.frames_per_batch"] = sum["net.batch_frames"] / sum["net.batches"]
	}
	m["network.tcp_stall_ms_per_query"] = sum["net.stall_ns"] / 1e6 / n
	m["network.dup_dropped"] = sum["net.dup_dropped"]
	m["network.gap_dropped"] = sum["net.gap_dropped"]
	m["cluster.control_ms"] = median(s.controlMS)
	return sum, peakMem
}

// distStatements is how many statements distLayers runs traced.
const distStatements = 96

// distLayers measures the TCP fabric, its reliability windows and the
// distributed coordinator for a workload that runs SSE-Q6..Q9
// in-process: the same statements over the same SSE data d on a 3-node
// claims-node cluster, every answer checked.
func distLayers(ctx context.Context, tr *tracer, o options, d olapData, m map[string]float64) error {
	d.tpchSF = 0
	var ans answers
	s, err := startDist3(ctx, o, d, &ans)
	if err != nil {
		return fmt.Errorf("distributed probe: %w", err)
	}
	defer s.close()
	run := func(from, n int, tr *tracer) error {
		for i := from; i < from+n; i++ {
			if _, _, err := s.do(ctx, 0, i, tr); err != nil {
				return fmt.Errorf("distributed probe: %w", err)
			}
		}
		return nil
	}
	if err := run(0, 12, nil); err != nil {
		return err
	}
	if err := s.traceOn(ctx); err != nil {
		return err
	}
	if err := run(12, distStatements, tr); err != nil {
		return err
	}
	if err := s.traceOff(ctx); err != nil {
		return err
	}
	ref, err := d.reference(ctx, distQueries, true, false)
	if err != nil {
		return err
	}
	if wrong, first := ans.check(ref); wrong > 0 {
		return fmt.Errorf("distributed probe: %d wrong answers, first %s", wrong, first)
	}
	s.wireLayers(m)
	return nil
}

func (s *dist3) close() {
	for _, p := range s.nodes {
		p.kill()
	}
	s.hc.CloseIdleConnections()
}
