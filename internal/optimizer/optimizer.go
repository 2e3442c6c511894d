// Package optimizer implements Algorithm 1 of Deutsch, Popa, Tannen
// (VLDB 1999) end to end:
//
//  1. chase the query with D ∪ D′ into the universal plan U,
//  2. backchase U, enumerating the minimal plans,
//  3. apply conventional cost-based optimization (binding reorder,
//     non-failing-lookup simplification) to each plan,
//  4. return the cheapest plan.
//
// The optimizer can be restricted to emit only plans over the physical
// schema ("the obvious strategy is to attempt to remove whatever is in
// the logical schema but not in the physical schema", §3).
package optimizer

import (
	"context"
	"fmt"

	"cnb/internal/backchase"
	"cnb/internal/chase"
	"cnb/internal/core"
	"cnb/internal/cost"
	"cnb/internal/planrewrite"
)

// Options configures an optimization run.
type Options struct {
	// Deps is D ∪ D′: logical constraints plus the implementation mapping.
	Deps []*core.Dependency
	// PhysicalNames restricts final plans to the given schema names when
	// non-nil; plans mentioning other names are discarded (unless no plan
	// qualifies, in which case all plans are kept and Result.Fallback is
	// set — soundness never depends on the restriction).
	PhysicalNames map[string]bool
	// Stats drives cost estimation; when nil, uniform defaults are used.
	Stats *cost.Stats
	// CostBounded switches the backchase phase to cost-bounded best-first
	// search driven by Stats: lattice states whose admissible cost lower
	// bound exceeds the cheapest complete plan found so far are pruned
	// without being chased. The cheapest plan keeps the same estimated
	// cost as exhaustive search, but Result.Minimal/Explored become
	// subsets of the exhaustive sets (cost-bounded search trades complete
	// enumeration for speed). No-op when Stats is nil. Opt-in so that the
	// default pipeline keeps the fully deterministic exhaustive order.
	CostBounded bool
	// Chase and Backchase tune the two phases. Backchase.Stats,
	// Backchase.TopK, Backchase.CostBudget and Backchase.Cache pass
	// through to the engine; CostBounded fills Backchase.Stats from Stats
	// when it is unset.
	Chase     chase.Options
	Backchase backchase.Options
	// Parallelism is the worker count for the backchase phase
	// (0 = all cores). It is copied into Backchase.Parallelism unless
	// that is already set explicitly.
	Parallelism int
	// MinimalOnly restricts the candidate plans to backchase normal forms.
	// By default every explored backchase state (each of which is an
	// equivalent plan — "we can stop this rewriting anytime") is also
	// costed: the paper's §4 view+index plan keeps the derivable view V
	// for its small size even though V is removable, so it is an
	// intermediate state rather than a minimal plan.
	MinimalOnly bool
}

// Result reports everything Algorithm 1 produced.
type Result struct {
	// Universal is the universal plan chase(Q).
	Universal *core.Query
	// ChaseSteps traces the constraints applied during the chase phase.
	ChaseSteps []chase.Step
	// Minimal are the raw minimal plans from the backchase (normalized).
	Minimal []*core.Query
	// Explored are all distinct backchase states (each an equivalent
	// plan); included in the candidate pool unless MinimalOnly is set.
	Explored []*core.Query
	// Candidates are the cost-ranked executable plans after lookup
	// simplification and binding reorder, cheapest first.
	Candidates []cost.RankedPlan
	// Best is the cheapest candidate. It is nil only when the candidate
	// pool is empty, which cannot happen for well-formed inputs UNLESS
	// Backchase.CostBudget pruned every state (a budget below the
	// cheapest plan's cost empties Minimal and Explored) — callers using
	// CostBudget must nil-check.
	Best *cost.RankedPlan
	// States is the number of subqueries the backchase explored.
	States int
	// Pruned is the number of backchase states skipped by cost-bound
	// pruning (0 unless Options.CostBounded or Backchase.Stats is set).
	Pruned int
	// BackchaseCached reports that the backchase phase was served from
	// Options.Backchase.Cache instead of being re-run.
	BackchaseCached bool
	// Fallback reports that the physical-only restriction was lifted
	// because no minimal plan satisfied it.
	Fallback bool
	// Inconsistent reports that the chase proved the query empty under
	// the constraints (an EGD equated distinct constants).
	Inconsistent bool
}

// Optimize runs Algorithm 1 on the query.
func Optimize(q *core.Query, opts Options) (*Result, error) {
	return OptimizeContext(context.Background(), q, opts)
}

// OptimizeContext is Optimize with cancellation, propagated through both
// the chase and the (parallel) backchase phase.
func OptimizeContext(ctx context.Context, q *core.Query, opts Options) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("optimizer: %w", err)
	}
	// Phase 1: chase. The premise index is a pure function of the
	// dependency set, so one index serves the chase phase and — via
	// Backchase.Index — every equivalence chase of the backchase lattice.
	depIndex := opts.Backchase.Index
	if depIndex == nil {
		depIndex = chase.NewDepIndex(opts.Deps)
	}
	chased, err := chase.ChaseIndexed(ctx, q, depIndex, opts.Chase)
	if err != nil {
		return nil, fmt.Errorf("optimizer: chase: %w", err)
	}
	res := &Result{Universal: chased.Query, ChaseSteps: chased.Steps}
	if chased.Inconsistent {
		res.Inconsistent = true
		empty := q.Clone()
		res.Minimal = []*core.Query{empty}
		stats := opts.Stats
		if stats == nil {
			stats = cost.NewStats()
		}
		res.Candidates = stats.Rank(res.Minimal)
		res.Best = &res.Candidates[0]
		return res, nil
	}

	// Phase 2: backchase.
	bopts := opts.Backchase
	bopts.Chase = opts.Chase
	bopts.Index = depIndex
	if bopts.Parallelism == 0 {
		bopts.Parallelism = opts.Parallelism
	}
	if opts.CostBounded && bopts.Stats == nil {
		bopts.Stats = opts.Stats
	}
	enum, err := backchase.EnumerateContext(ctx, chased.Query, opts.Deps, bopts)
	if err != nil {
		return nil, fmt.Errorf("optimizer: backchase: %w", err)
	}
	res.States = enum.States
	res.Pruned = enum.Pruned
	res.BackchaseCached = enum.FromCache
	res.Minimal = enum.Plans
	res.Explored = enum.Explored

	// Candidate pool: the minimal plans plus (by default) every explored
	// backchase state — all are equivalent to Q, and a non-minimal state
	// can be the cheapest executable plan (§4's view+index navigation).
	pool := append([]*core.Query(nil), enum.Plans...)
	if !opts.MinimalOnly {
		pool = append(pool, enum.Explored...)
	}

	// Physical-only restriction.
	isPhysical := func(p *core.Query) bool {
		if opts.PhysicalNames == nil {
			return true
		}
		for n := range p.Names() {
			if !opts.PhysicalNames[n] {
				return false
			}
		}
		return true
	}
	var plans []*core.Query
	for _, p := range pool {
		if isPhysical(p) {
			plans = append(plans, p)
		}
	}
	if len(plans) == 0 {
		plans = pool
		res.Fallback = opts.PhysicalNames != nil
	}

	// Phase 3: conventional optimization per plan, deduplicating the
	// simplified forms.
	var executable []*core.Query
	seen := map[string]bool{}
	for _, p := range plans {
		s := planrewrite.SimplifyLookups(p)
		sig := s.CanonicalSignature()
		if !seen[sig] {
			seen[sig] = true
			executable = append(executable, s)
		}
	}
	stats := opts.Stats
	if stats == nil {
		stats = cost.NewStats()
	}
	res.Candidates = stats.Rank(executable)
	if len(res.Candidates) > 0 {
		res.Best = &res.Candidates[0]
	}
	return res, nil
}
