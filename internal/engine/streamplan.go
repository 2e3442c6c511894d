package engine

import (
	"context"
	"fmt"

	"cnb/internal/core"
	"cnb/internal/cost"
	"cnb/internal/instance"
)

// StreamOptions configures the streaming compiler.
type StreamOptions struct {
	// BatchSize is the row capacity of the batches exchanged between
	// operators; DefaultBatchSize when zero or negative.
	BatchSize int
	// Buffer, when positive, decouples the operator pipeline from the
	// projection/dedup sink behind a bounded prefetch of that many
	// batches, produced by a background goroutine. Zero runs the whole
	// plan on the caller's goroutine.
	Buffer int
	// Stats, when non-nil, supplies build-side pre-sizing hints for hash
	// joins (cost.Stats.BuildSizeHint). Purely advisory: results and
	// counters are identical with or without it.
	Stats *cost.Stats
	// NoHashJoin disables the hash-join rewrite, compiling every binding
	// as a nested batch scan. Used by differential tests to compare the
	// two physical strategies on identical plans.
	NoHashJoin bool
}

// Counters is the work profile of one operator since its last Open:
// Evals counts range/condition evaluations (for a lookup scan, one Eval
// is one dictionary probe; for a relation scan, one pass over the
// collection; plus one per candidate row checked against a pushed-down
// predicate), Rows counts rows the operator emitted. The sum over a plan
// tree is the measured-cost counterpart of cost.Stats.Estimate — the E14
// calibration experiment correlates the two.
type Counters struct {
	Evals int64
	Rows  int64
}

func (c *Counters) add(o Counters) {
	c.Evals += o.Evals
	c.Rows += o.Rows
}

// Measure is the work profile of a plan's last Run: the summed operator
// counters plus the number of rows that reached the projection (before
// set deduplication).
type Measure struct {
	Counters
	OutRows int64
}

// Cost collapses the profile into one machine-independent work number —
// every range evaluation, predicate check, row moved through the pipeline
// and row projected. It is the scalar the calibration harness compares
// against cost.Stats estimates.
func (m Measure) Cost() float64 {
	return float64(m.Evals + m.Rows + m.OutRows)
}

// StreamPlan is a compiled streaming query plan. A plan is single-
// consumer — Run, Measure, and Explain must not be called concurrently —
// but independent plans compiled from the same query and instance may
// run in parallel.
type StreamPlan struct {
	root       StreamOperator
	ops        []StreamOperator // counter-owning operators (excludes buffers)
	out        *core.Term
	in         *instance.Instance
	query      *core.Query
	constConds []core.Cond

	constEvals int64
	outRows    int64
}

// CompileStream builds a streaming operator tree for the plan's binding
// order. Each condition is placed at the earliest binding where its
// variables are bound and pushed down from there:
//
//   - conditions mentioning only the new variable (or constants) filter
//     inside the scan, before the row is materialized;
//   - equality conditions linking the new variable to earlier ones turn
//     an input-independent range into a hash join, with the new-variable
//     side as the build key and the earlier-variable side as the probe
//     key (all such conditions form one composite key);
//   - anything else — a single term mixing new and old variables —
//     remains a residual batch filter above the operator.
//
// Variable-free conditions are checked once per Run. The binding order
// is taken as given: join *ordering* stays the optimizer's job
// (cost.Stats.Reorder), this compiler only picks the physical strategy
// per binding.
func CompileStream(q *core.Query, in *instance.Instance, opts StreamOptions) (*StreamPlan, error) {
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if len(q.Bindings) == 0 {
		return nil, fmt.Errorf("engine: plan with no bindings")
	}
	batch := opts.BatchSize
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	pos := map[string]int{}
	for i, b := range q.Bindings {
		pos[b.Var] = i
	}
	condAt := make([][]core.Cond, len(q.Bindings)+1)
	for _, c := range q.Conds {
		last := -1
		for v := range c.L.Vars() {
			if p, ok := pos[v]; ok && p > last {
				last = p
			}
		}
		for v := range c.R.Vars() {
			if p, ok := pos[v]; ok && p > last {
				last = p
			}
		}
		condAt[last+1] = append(condAt[last+1], c)
	}

	var root StreamOperator
	var ops []StreamOperator
	sch := newBatchSchema(nil)
	for i, b := range q.Bindings {
		sch = sch.extend(b.Var)
		conds := condAt[i+1]

		// Partition this level's conditions by which side of the join
		// they can drive.
		onlyNew := func(vs map[string]bool) bool {
			for v := range vs {
				if v != b.Var {
					return false
				}
			}
			return true
		}
		var scanPreds, residual []core.Cond
		var buildTerms, probeTerms []*core.Term
		for _, c := range conds {
			lv, rv := c.L.Vars(), c.R.Vars()
			switch {
			case onlyNew(lv) && onlyNew(rv):
				scanPreds = append(scanPreds, c)
			case onlyNew(lv) && len(lv) > 0 && len(rv) > 0 && !rv[b.Var]:
				buildTerms = append(buildTerms, c.L)
				probeTerms = append(probeTerms, c.R)
			case onlyNew(rv) && len(rv) > 0 && len(lv) > 0 && !lv[b.Var]:
				buildTerms = append(buildTerms, c.R)
				probeTerms = append(probeTerms, c.L)
			default:
				residual = append(residual, c)
			}
		}

		if i > 0 && !opts.NoHashJoin && len(buildTerms) > 0 && len(b.Range.Vars()) == 0 {
			presize := 0
			if opts.Stats != nil {
				presize = opts.Stats.BuildSizeHint(b.Range)
			}
			hj := &hashJoin{
				in:         in,
				child:      root,
				v:          b.Var,
				rng:        b.Range,
				buildTerms: buildTerms,
				probeTerms: probeTerms,
				buildPreds: scanPreds,
				sch:        sch,
				batch:      batch,
				presize:    presize,
			}
			root = hj
			ops = append(ops, hj)
		} else {
			// No hash opportunity: scan the range per input row with every
			// ready condition pushed down as a scan predicate.
			sc := &batchScan{
				in:    in,
				child: root,
				v:     b.Var,
				rng:   b.Range,
				preds: conds,
				sch:   sch,
				batch: batch,
			}
			root = sc
			ops = append(ops, sc)
			residual = nil
		}
		if len(residual) > 0 {
			f := &batchFilter{in: in, child: root, conds: residual}
			root = f
			ops = append(ops, f)
		}
	}
	if opts.Buffer > 0 {
		// Not appended to ops: a buffer owns no counters of its own
		// (Counters delegates to its child, which is already listed).
		root = &buffered{child: root, depth: opts.Buffer}
	}
	return &StreamPlan{
		root:       root,
		ops:        ops,
		out:        q.Out,
		in:         in,
		query:      q,
		constConds: condAt[0],
	}, nil
}

// Run executes the plan under ctx and returns its deduplicated result
// set. Cancelling ctx aborts the run between rows with ctx.Err(); all
// operators — including any background prefetch goroutine — are closed
// before Run returns, whatever the outcome. Counters reset at each Run,
// so Measure reflects the latest Run only.
func (p *StreamPlan) Run(ctx context.Context) (*instance.Set, error) {
	p.outRows = 0
	p.constEvals = 0
	out := instance.NewSet()
	// Variable-free conditions decide the whole run once.
	empty := &Batch{schema: newBatchSchema(nil)}
	for _, c := range p.constConds {
		p.constEvals++
		l, err := batchEval(c.L, empty, 0, p.in)
		if err != nil {
			return nil, err
		}
		r, err := batchEval(c.R, empty, 0, p.in)
		if err != nil {
			return nil, err
		}
		if l.Key() != r.Key() {
			return out, nil
		}
	}
	if err := p.root.Open(ctx); err != nil {
		return nil, err
	}
	defer p.root.Close()
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b, err := p.root.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		for i := 0; i < b.Len(); i++ {
			v, err := batchEval(p.out, b, i, p.in)
			if err != nil {
				return nil, err
			}
			p.outRows++
			out.Add(v)
		}
	}
}

// Measure returns the work profile accumulated by the last Run — what
// the E14 calibration and the E18 execution gates record.
func (p *StreamPlan) Measure() Measure {
	var m Measure
	for _, op := range p.ops {
		m.add(op.Counters())
	}
	m.Evals += p.constEvals
	m.OutRows = p.outRows
	return m
}

// Explain renders the streaming operator tree.
func (p *StreamPlan) Explain() string {
	return fmt.Sprintf("Project %s\n%s", p.out, p.root.Describe("  "))
}

// StreamExecute compiles and runs a streaming plan in one call.
func StreamExecute(ctx context.Context, q *core.Query, in *instance.Instance, opts StreamOptions) (*instance.Set, error) {
	p, err := CompileStream(q, in, opts)
	if err != nil {
		return nil, err
	}
	return p.Run(ctx)
}
