package engine

import (
	"context"
	"fmt"
	"time"

	"repro/internal/block"
	"repro/internal/iterator"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/types"
)

// The serial fast path. High-QPS point lookups spend microseconds in
// operators and hundreds of microseconds in the parallel dataflow
// machinery around them: elastic pools, exchange staging, sampler and
// scheduler goroutines, memory admission. For a small, gather-only
// plan none of that machinery changes the answer, so an opted-in
// cluster (Config.FastPath) runs eligible plans to completion on the
// calling goroutine: segments execute in dependency order, data
// segments once per data node, and exchange edges become in-memory
// block hand-offs. Anything the fast path cannot prove harmless —
// distribution, fault injection, repartition exchanges, joins, scans
// above Config.FastPathRows — falls back to the regular executor.

// fastEligible reports whether the plan can take the serial fast path
// on this cluster.
func (c *Cluster) fastEligible(p *plan.Plan) bool {
	if !c.cfg.FastPath || c.dist != nil || c.faultInj != nil {
		return false
	}
	var rows int64
	ok := true
	for _, seg := range p.Segments {
		// Repartition exchanges imply hash-distributed consumers; the
		// serial executor only models gather edges. Order-preserving
		// segments rely on the merge discipline of the exchange, which
		// plain block concatenation does not honor.
		if seg.Out != nil && seg.Out.PartKeys != nil {
			return false
		}
		if seg.OrderPreserving {
			return false
		}
		plan.Walk(seg.Root, func(op plan.PhysOp) {
			switch n := op.(type) {
			case *plan.PScan:
				rows += n.Table.Stats.Rows
			case *plan.PHashJoin:
				ok = false
			}
		})
	}
	if !ok || rows > c.cfg.FastPathRows {
		return false
	}
	// Every exchange must gather into a master-resident consumer: a
	// data-node consumer would mean broadcast, which the single-pass
	// segment loop does not model.
	segByID := make(map[int]*plan.Segment, len(p.Segments))
	for _, seg := range p.Segments {
		segByID[seg.ID] = seg
	}
	for _, ex := range p.Exchanges {
		cons, exists := segByID[ex.Consumer]
		if !exists || !cons.OnMaster {
			return false
		}
	}
	return true
}

// runFast executes an eligible plan serially with its arguments.
func (c *Cluster) runFast(ctx context.Context, p *plan.Plan, args []types.Value, sc *telemetry.Scope, sqlText string) (*Result, error) {
	vals, err := p.CoerceArgs(args)
	if err != nil {
		return nil, err
	}
	reg := telemetry.DefaultRegistry()
	if sc == nil && reg != nil {
		// Ring-less scope: the event ring is a debugging window whose
		// allocation would dominate a microsecond-scale query. With no
		// registry either, the query is untracked and needs no scope at
		// all — the serving loop's steady state.
		sc = telemetry.NewScope(fmt.Sprintf("q%d", queryScopeSeq.Add(1)), telemetry.WithRingSize(0))
	}
	qrec := reg.Begin(sc, sqlText)
	start := time.Now()
	res, err := c.runFastInner(ctx, p, &argBinder{vals: vals})
	reg.Finish(qrec, err)
	if err != nil {
		return nil, err
	}
	if reg != nil {
		reg.Counter(telemetry.CtrFastPathQueries).Inc()
	}
	res.Stats.Duration = time.Since(start)
	res.Scope = sc
	return res, nil
}

func (c *Cluster) runFastInner(ctx context.Context, p *plan.Plan, args *argBinder) (*Result, error) {
	// Exchange edges become accumulated block slices; feeds[ex] is
	// replayed by the consumer's merger position.
	feeds := make(map[int][]*block.Block)
	order, err := fastTopoOrder(p)
	if err != nil {
		return nil, err
	}
	var final []*block.Block
	for _, seg := range order {
		nodes := []int{c.master()}
		if !seg.OnMaster {
			nodes = nodes[:0]
			for n := 0; n < c.cfg.Nodes; n++ {
				nodes = append(nodes, n)
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		segOut, err := c.fastRunSegment(ctx, seg, nodes, feeds, args)
		if err != nil {
			return nil, err
		}
		if seg.Out != nil {
			feeds[seg.Out.Exchange] = append(feeds[seg.Out.Exchange], segOut...)
		}
		if seg == p.Final {
			final = segOut
		}
	}
	return &Result{
		Names:  p.OutputNames,
		Schema: p.Final.Root.Schema(),
		Blocks: final,
	}, nil
}

// fastRunSegment builds the segment's iterator tree — one tree for
// all nodes, partition scans serialized — and drains it with a single worker
// context. Fusing the per-node instances is what makes the fast path
// fast: operator construction (hash tables, barriers, compiled
// kernels) happens once per segment instead of once per node, and the
// serial drive makes the union-of-partitions input equivalent to the
// parallel per-node instances for the algebraic operators admitted by
// fastEligible.
func (c *Cluster) fastRunSegment(ctx context.Context, seg *plan.Segment, nodes []int, feeds map[int][]*block.Block, args *argBinder) ([]*block.Block, error) {
	it, err := c.buildFast(seg.Root, nodes, feeds, args)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	wctx := &iterator.Ctx{Term: &iterator.TermFlag{}}
	if st := it.Open(wctx); st != iterator.OK {
		return nil, nil
	}
	var out []*block.Block
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b, st := it.Next(wctx)
		if st != iterator.OK {
			return out, nil
		}
		if b.NumTuples() > 0 {
			out = append(out, b)
		}
	}
}

// buildFast mirrors buildOpInner without the parallel machinery:
// scans expand to a chain over every node's partition, mergers read
// materialized upstream blocks, stateful operators run unaccounted
// (the row cap bounds their state).
func (c *Cluster) buildFast(op plan.PhysOp, nodes []int, feeds map[int][]*block.Block, args *argBinder) (iterator.Iterator, error) {
	switch n := op.(type) {
	case *plan.PScan:
		parts := make([]*storage.Partition, len(nodes))
		for i, node := range nodes {
			part, err := c.store(node).Partition(n.Table.Name)
			if err != nil {
				return nil, err
			}
			parts[i] = part
		}
		pred := args.expr(n.Pred)
		var it iterator.Iterator = iterator.NewSerialScan(parts, n.Sch)
		if pred != nil {
			f := iterator.NewFilter(it, n.Sch, pred)
			f.RowExec = c.cfg.RowExec
			it = f
		}
		return it, nil

	case *plan.PMerger:
		return &blockFeed{blocks: feeds[n.Exchange]}, nil

	case *plan.PFilter:
		child, err := c.buildFast(n.Child, nodes, feeds, args)
		if err != nil {
			return nil, err
		}
		f := iterator.NewFilter(child, n.Child.Schema(), args.expr(n.Pred))
		f.RowExec = c.cfg.RowExec
		return f, nil

	case *plan.PProject:
		child, err := c.buildFast(n.Child, nodes, feeds, args)
		if err != nil {
			return nil, err
		}
		pr := iterator.NewProject(child, n.Child.Schema(), n.Sch, args.list(n.Exprs))
		pr.RowExec = c.cfg.RowExec
		return pr, nil

	case *plan.PHashAgg:
		child, err := c.buildFast(n.Child, nodes, feeds, args)
		if err != nil {
			return nil, err
		}
		ha := iterator.NewHashAgg(child, n.Child.Schema(), args.list(n.Keys), n.KeyNames,
			args.specs(n.Specs), n.Algo)
		ha.RowExec = c.cfg.RowExec
		ha.Serial()
		return ha, nil

	case *plan.PSort:
		child, err := c.buildFast(n.Child, nodes, feeds, args)
		if err != nil {
			return nil, err
		}
		return iterator.NewSort(child, n.Child.Schema(), args.sortKeys(n.Keys)), nil

	case *plan.PTopN:
		child, err := c.buildFast(n.Child, nodes, feeds, args)
		if err != nil {
			return nil, err
		}
		return iterator.NewTopN(child, n.Child.Schema(), args.sortKeys(n.Keys), int(n.N)), nil

	case *plan.PLimit:
		child, err := c.buildFast(n.Child, nodes, feeds, args)
		if err != nil {
			return nil, err
		}
		return iterator.NewLimit(child, n.Child.Schema(), n.N), nil
	}
	return nil, fmt.Errorf("engine: fast path cannot instantiate %T", op)
}

// fastTopoOrder orders segments so every exchange's producer runs
// before its consumer.
func fastTopoOrder(p *plan.Plan) ([]*plan.Segment, error) {
	prodOf := make(map[int][]int) // consumer segment ID → producer segment IDs
	for _, ex := range p.Exchanges {
		prodOf[ex.Consumer] = append(prodOf[ex.Consumer], ex.Producer)
	}
	done := make(map[int]bool, len(p.Segments))
	segByID := make(map[int]*plan.Segment, len(p.Segments))
	for _, seg := range p.Segments {
		segByID[seg.ID] = seg
	}
	var order []*plan.Segment
	for len(order) < len(p.Segments) {
		progressed := false
		for _, seg := range p.Segments {
			if done[seg.ID] {
				continue
			}
			ready := true
			for _, prod := range prodOf[seg.ID] {
				if !done[prod] {
					ready = false
					break
				}
			}
			if ready {
				done[seg.ID] = true
				order = append(order, seg)
				progressed = true
			}
		}
		if !progressed {
			return nil, fmt.Errorf("engine: exchange cycle in plan")
		}
	}
	return order, nil
}

// blockFeed replays materialized upstream blocks as an iterator — the
// fast path's stand-in for a merger reading a network inbox.
type blockFeed struct {
	blocks []*block.Block
	i      int
}

func (f *blockFeed) Open(*iterator.Ctx) iterator.Status { return iterator.OK }

func (f *blockFeed) Next(ctx *iterator.Ctx) (*block.Block, iterator.Status) {
	if f.i >= len(f.blocks) {
		return nil, iterator.End
	}
	b := f.blocks[f.i]
	f.i++
	if ctx.OnBlockDone != nil {
		ctx.OnBlockDone(b.NumTuples())
	}
	return b, iterator.OK
}

func (f *blockFeed) Close() {}
