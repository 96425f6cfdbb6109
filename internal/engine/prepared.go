package engine

import (
	"context"

	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/telemetry"
	"repro/internal/types"
)

// This file is the plan-cache face of the cluster. Compilation is
// keyed on the statement's normalized text and the catalog version it
// was planned against, so repeated statements — whether re-submitted
// ad hoc or EXECUTEd through a session — skip parse and plan entirely.
// Plans are never modified: arguments are an input of each execution.

// CompileCached compiles query against the current catalog, consulting
// the cluster's plan cache first. It returns the plan, the arguments
// to execute it with, and whether the plan came from the cache.
//
// Comparison literals are lifted into arguments (sql.Parameterize), so
// statements differing only in them share one template with each other
// and with the same statement written with $n. If the literals do not
// fit the template's slots exactly (plan.ArgsExact), or the template
// does not compile, the literal text is compiled instead, so results
// and errors are those of the text as written. With caching disabled
// (PlanCacheSize < 0) nothing is lifted.
func (c *Cluster) CompileCached(query string) (*plan.Plan, []types.Value, bool, error) {
	l, err := sql.Parameterize(query)
	if err != nil {
		// Not lexable: let the parser produce its richer error.
		p, cerr := plan.Compile(query, c.cat)
		return p, nil, false, cerr
	}
	if len(l.Args) == 0 || c.cfg.PlanCacheSize < 0 {
		p, hit, err := c.cached(l.Key, query)
		return p, nil, hit, err
	}
	if p, hit, err := c.cached(l.Key, l.Template); err == nil && p.ArgsExact(l.Args) {
		return p, l.Args, hit, nil
	}
	key, _ := sql.Normalize(query) // lexes: Parameterize just did
	p, hit, err := c.cached(key, query)
	return p, nil, hit, err
}

// cached returns the plan cached under key, compiling text and caching
// the result on a miss. The process registry counts the outcome.
func (c *Cluster) cached(key, text string) (*plan.Plan, bool, error) {
	cache := c.planCache
	version := c.cat.Version()
	reg := telemetry.DefaultRegistry()
	if p, ok := cache.Get(key, version); ok {
		reg.Counter(telemetry.CtrPlanCacheHits).Inc()
		return p, true, nil
	}
	reg.Counter(telemetry.CtrPlanCacheMisses).Inc()
	evBefore := cache.Stats().Evictions
	p, err := plan.Compile(text, c.cat)
	if err != nil {
		return nil, false, err
	}
	cache.Put(key, version, p)
	if d := cache.Stats().Evictions - evBefore; d > 0 {
		reg.Counter(telemetry.CtrPlanCacheEvictions).Add(d)
	}
	return p, false, nil
}

// PlanCacheStats snapshots the cluster's plan-cache counters.
func (c *Cluster) PlanCacheStats() plan.CacheStats {
	return c.planCache.Stats()
}

// CatalogVersion reports the catalog version plans are currently keyed
// on; sessions use it to detect stale prepared statements.
func (c *Cluster) CatalogVersion() int64 {
	return c.cat.Version()
}

// Execute runs a compiled plan with args bound to its $n slots — the
// EXECUTE path, and with CompileCached's arguments the ad-hoc one. The
// plan is not modified, so one cached template serves any number of
// concurrent executions. sqlText labels telemetry and errors.
func (c *Cluster) Execute(ctx context.Context, p *plan.Plan, args []types.Value, sqlText string) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return c.run(ctx, p, args, nil, sqlText, nil)
}

// run is the one execution path behind Run, RunContext, RunScoped,
// Execute and ExplainAnalyze: a plan and its arguments. It takes the
// serial fast path when the cluster opted in and the plan is eligible
// (never for an analyzed run), else the regular parallel dataflow. sc
// may be nil: each path then creates the scope that suits it (the fast
// path's is ring-less), so entry points that don't hand scopes to
// callers skip the allocation.
func (c *Cluster) run(ctx context.Context, p *plan.Plan, args []types.Value, sc *telemetry.Scope, sqlText string, az *analyzeState) (*Result, error) {
	if az == nil && c.fastEligible(p) {
		return c.runFast(ctx, p, args, sc, sqlText)
	}
	if sc == nil {
		sc = newQueryScope()
	}
	return c.runPlanOpts(ctx, p, args, sc, sqlText, az, nil)
}
