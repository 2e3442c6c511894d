// Package engine is the physical execution engine: it compiles a PC plan
// into a tree of pull-based streaming operators and runs it against an
// instance. Operators exchange columnar batches; selections are pushed
// into scans, equality joins over input-independent ranges become hash
// joins, and an optional prefetch buffer pipelines the operator tree
// against the projection/dedup sink.
//
// Unlike the reference evaluator (package eval), the engine exploits the
// physical distinctions that motivate the paper: a dictionary lookup is a
// hash probe, not a scan, so plans like P3 (secondary-index lookup) and P4
// (join-index navigation) run in time proportional to their result, not to
// the base data. The E8 experiment measures exactly this difference.
//
// This is the only executor: service.Query, the E8/E14/E18 experiments and
// the examples all run plans through CompileStream/StreamExecute, and every
// differential test checks its result sets against eval. Each run reports
// its work profile as a Measure (range evaluations, rows moved, rows
// projected), the currency of the E14 calibration and the E18 gates.
//
// Concurrency: a compiled StreamPlan and its operators are single-consumer
// — a plan may not be driven by more than one goroutine at a time
// (buffered stages spawn internal producer goroutines, but the
// Open/Next/Close surface remains single-threaded). Plans are cheap to
// compile; build one per goroutine. Instances are read-only during
// execution.
package engine

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"cnb/internal/core"
	"cnb/internal/instance"
)

// StreamOperator is a pull-based batch iterator. The protocol is
// Open(ctx) → Next()* → Close():
//
//   - Open prepares the operator (and its inputs) and resets counters.
//     The context governs the whole run; operators observe its
//     cancellation between and within batches and abort with ctx.Err().
//   - Next returns the next non-empty batch, or (nil, nil) at end of
//     stream. The returned batch is owned by the caller until its next
//     call to Next on the same operator.
//   - Close releases resources. It must be safe to call after an error
//     and must stop any background producer goroutines (buffered
//     operators block until theirs have exited, so a Close that returns
//     leaves no goroutine behind).
//
// A StreamOperator is single-consumer: Open/Next/Close must not be
// called concurrently. Distinct plans compiled from the same query are
// independent and may run concurrently against the same instance.
type StreamOperator interface {
	// Open prepares the operator for a run under ctx and resets counters.
	Open(ctx context.Context) error
	// Next returns the next batch, or nil at end of stream.
	Next() (*Batch, error)
	// Close releases resources, including any producer goroutines.
	Close() error
	// Describe renders the operator subtree, for EXPLAIN-style output.
	Describe(indent string) string
	// Counters returns the work counters accumulated since the last Open.
	Counters() Counters
	// schema is the batch schema this operator emits.
	schema() *batchSchema
}

// appendKey renders a value's canonical key into a composite hash key.
// Keys are length-prefixed before concatenation so composite keys cannot
// collide across field boundaries.
func appendKey(sb *strings.Builder, v instance.Value) {
	k := v.Key()
	sb.WriteString(strconv.Itoa(len(k)))
	sb.WriteByte(':')
	sb.WriteString(k)
}

// --- batch scan over a binding range ------------------------------------

// batchScan iterates one from-clause binding with predicate pushdown: for
// every input row it evaluates the range term (relation scan, dom scan,
// entry scan, or dictionary lookup), and filters each candidate element
// against the pushed-down predicates before the row is ever materialized
// into the output batch. Counters: one Eval per range evaluation, one
// Eval per candidate row checked against predicates, and one Row per
// survivor — rows rejected by a pushed predicate are never counted as
// moved, which is exactly the work pushdown saves.
type batchScan struct {
	in    *instance.Instance
	child StreamOperator
	v     string
	rng   *core.Term
	preds []core.Cond

	sch   *batchSchema
	ctx   context.Context
	batch int

	cur   *Batch // input batch being expanded
	row   int    // next input row to expand
	elems []instance.Value
	pos   int
	done  bool
	ctrs  Counters
}

func (b *batchScan) schema() *batchSchema { return b.sch }

func (b *batchScan) Open(ctx context.Context) error {
	b.ctx = ctx
	b.cur = nil
	b.row = 0
	b.elems = nil
	b.pos = 0
	b.done = false
	b.ctrs = Counters{}
	if b.child != nil {
		return b.child.Open(ctx)
	}
	return nil
}

func (b *batchScan) Close() error {
	if b.child != nil {
		return b.child.Close()
	}
	return nil
}

func (b *batchScan) Counters() Counters { return b.ctrs }

// passes evaluates the pushed-down predicates against the candidate
// output row (out's last appended row).
func (b *batchScan) passes(out *Batch, i int) (bool, error) {
	for _, c := range b.preds {
		l, err := batchEval(c.L, out, i, b.in)
		if err != nil {
			return false, err
		}
		r, err := batchEval(c.R, out, i, b.in)
		if err != nil {
			return false, err
		}
		if l.Key() != r.Key() {
			return false, nil
		}
	}
	return true, nil
}

func (b *batchScan) Next() (*Batch, error) {
	out := newBatch(b.sch, b.batch)
	for {
		if err := b.ctx.Err(); err != nil {
			return nil, err
		}
		// Refill the element list from the next input row.
		if b.pos >= len(b.elems) {
			if b.cur == nil || b.row >= b.cur.Len() {
				if b.child == nil {
					if b.done {
						break
					}
					// The leaf scan has one virtual, empty input row.
					b.done = true
					b.cur = newBatch(newBatchSchema(nil), 0)
					b.row = 0
				} else {
					nb, err := b.child.Next()
					if err != nil {
						return nil, err
					}
					if nb == nil {
						break
					}
					b.cur = nb
					b.row = 0
					continue
				}
			}
			b.ctrs.Evals++
			val, err := batchEval(b.rng, b.cur, b.row, b.in)
			if err != nil {
				return nil, err
			}
			set, ok := val.(*instance.Set)
			if !ok {
				return nil, fmt.Errorf("engine: range %s is not a set", b.rng)
			}
			b.elems = set.Elems()
			b.pos = 0
			b.row++
			continue
		}
		elem := b.elems[b.pos]
		b.pos++
		// Materialize the candidate row, then test pushed predicates;
		// reject by truncating the appended row.
		out.appendRow(b.cur, b.row-1, elem)
		if len(b.preds) > 0 {
			b.ctrs.Evals++
			ok, err := b.passes(out, out.Len()-1)
			if err != nil {
				return nil, err
			}
			if !ok {
				for j := range out.cols {
					out.cols[j] = out.cols[j][:len(out.cols[j])-1]
				}
				continue
			}
		}
		b.ctrs.Rows++
		if out.Len() >= b.batch {
			return out, nil
		}
	}
	if out.Len() == 0 {
		return nil, nil
	}
	return out, nil
}

func (b *batchScan) Describe(indent string) string {
	kind := "BatchScan"
	switch b.rng.Kind {
	case core.KDom:
		kind = "BatchDomScan"
	case core.KLookup:
		if b.rng.NonFailing {
			kind = "BatchLookupScan(non-failing)"
		} else {
			kind = "BatchLookupScan"
		}
	case core.KProj:
		kind = "BatchPathScan"
	}
	s := fmt.Sprintf("%s%s %s as %s", indent, kind, b.rng, b.v)
	if len(b.preds) > 0 {
		s += fmt.Sprintf(" pushdown=%v", b.preds)
	}
	s += "\n"
	if b.child != nil {
		s += b.child.Describe(indent + "  ")
	}
	return s
}

// --- residual filter ----------------------------------------------------

// batchFilter applies conditions that could not be pushed into a scan or
// turned into a hash-join key (for example an equality whose single term
// mixes the new variable with earlier ones). Counters: one Eval per input
// row, one Row per survivor.
type batchFilter struct {
	in    *instance.Instance
	child StreamOperator
	conds []core.Cond
	ctrs  Counters
}

func (f *batchFilter) schema() *batchSchema { return f.child.schema() }

func (f *batchFilter) Open(ctx context.Context) error {
	f.ctrs = Counters{}
	return f.child.Open(ctx)
}

func (f *batchFilter) Close() error       { return f.child.Close() }
func (f *batchFilter) Counters() Counters { return f.ctrs }

func (f *batchFilter) Next() (*Batch, error) {
	for {
		in, err := f.child.Next()
		if err != nil || in == nil {
			return nil, err
		}
		out := newBatch(in.schema, in.Len())
		for i := 0; i < in.Len(); i++ {
			f.ctrs.Evals++
			ok := true
			for _, c := range f.conds {
				l, err := batchEval(c.L, in, i, f.in)
				if err != nil {
					return nil, err
				}
				r, err := batchEval(c.R, in, i, f.in)
				if err != nil {
					return nil, err
				}
				if l.Key() != r.Key() {
					ok = false
					break
				}
			}
			if ok {
				f.ctrs.Rows++
				out.copyRow(in, i)
			}
		}
		if out.Len() > 0 {
			return out, nil
		}
	}
}

func (f *batchFilter) Describe(indent string) string {
	return fmt.Sprintf("%sBatchFilter %v\n", indent, f.conds) + f.child.Describe(indent+"  ")
}

// --- hash join ----------------------------------------------------------

// hashJoin binds a variable ranging over an input-independent collection
// (a base relation or a dictionary domain) by hashing instead of
// rescanning: at Open it evaluates the range once, filters build rows
// against build-side pushed predicates, and indexes them by the
// composite key of the build-side join terms — pre-sizing the table from
// cost.Stats cardinalities when available. Each probe row then extends
// by exactly its matching build rows.
//
// Counter semantics: the build pass costs one Eval for the range
// evaluation plus one Eval per build row keyed (hash insert work, the
// analogue of scanning the collection once); probing costs one Eval per
// probe row and one Row per emitted match. Compared to the nested
// batchScan it replaces, the per-probe rescan of the whole collection
// disappears — which is the measured speedup E18 gates.
type hashJoin struct {
	in    *instance.Instance
	child StreamOperator
	v     string
	rng   *core.Term
	// joinConds: build side (terms over only v) and probe side (terms
	// over only earlier variables), index-aligned.
	buildTerms []*core.Term
	probeTerms []*core.Term
	// buildPreds are single-variable predicates pushed into the build pass.
	buildPreds []core.Cond

	sch      *batchSchema
	ctx      context.Context
	batch    int
	presize  int // hint from cost.Stats; 0 = unknown
	table    map[string][]instance.Value
	built    bool
	cur      *Batch
	row      int
	matches  []instance.Value
	matchPos int
	ctrs     Counters
}

func (h *hashJoin) schema() *batchSchema { return h.sch }

func (h *hashJoin) Open(ctx context.Context) error {
	h.ctx = ctx
	h.table = nil
	h.built = false
	h.cur = nil
	h.row = 0
	h.matches = nil
	h.matchPos = 0
	h.ctrs = Counters{}
	return h.child.Open(ctx)
}

func (h *hashJoin) Close() error       { return h.child.Close() }
func (h *hashJoin) Counters() Counters { return h.ctrs }

// build evaluates the range once and indexes it by the build-key terms.
func (h *hashJoin) build() error {
	empty := &Batch{schema: newBatchSchema(nil)}
	h.ctrs.Evals++
	val, err := batchEval(h.rng, empty, 0, h.in)
	if err != nil {
		return err
	}
	set, ok := val.(*instance.Set)
	if !ok {
		return fmt.Errorf("engine: range %s is not a set", h.rng)
	}
	elems := set.Elems()
	size := len(elems)
	if h.presize > 0 && h.presize < size {
		size = h.presize
	}
	h.table = make(map[string][]instance.Value, size)
	one := newBatch(newBatchSchema([]string{h.v}), 1)
	var sb strings.Builder
	for _, elem := range elems {
		if err := h.ctx.Err(); err != nil {
			return err
		}
		one.cols[0] = one.cols[0][:0]
		one.cols[0] = append(one.cols[0], elem)
		h.ctrs.Evals++
		keep := true
		for _, c := range h.buildPreds {
			l, err := batchEval(c.L, one, 0, h.in)
			if err != nil {
				return err
			}
			r, err := batchEval(c.R, one, 0, h.in)
			if err != nil {
				return err
			}
			if l.Key() != r.Key() {
				keep = false
				break
			}
		}
		if !keep {
			continue
		}
		sb.Reset()
		for _, bt := range h.buildTerms {
			v, err := batchEval(bt, one, 0, h.in)
			if err != nil {
				return err
			}
			appendKey(&sb, v)
		}
		k := sb.String()
		h.table[k] = append(h.table[k], elem)
	}
	h.built = true
	return nil
}

func (h *hashJoin) Next() (*Batch, error) {
	if !h.built {
		if err := h.build(); err != nil {
			return nil, err
		}
	}
	out := newBatch(h.sch, h.batch)
	var sb strings.Builder
	for {
		if err := h.ctx.Err(); err != nil {
			return nil, err
		}
		if h.matchPos >= len(h.matches) {
			if h.cur == nil || h.row >= h.cur.Len() {
				nb, err := h.child.Next()
				if err != nil {
					return nil, err
				}
				if nb == nil {
					break
				}
				h.cur = nb
				h.row = 0
				continue
			}
			h.ctrs.Evals++
			sb.Reset()
			for _, pt := range h.probeTerms {
				v, err := batchEval(pt, h.cur, h.row, h.in)
				if err != nil {
					return nil, err
				}
				appendKey(&sb, v)
			}
			h.matches = h.table[sb.String()]
			h.matchPos = 0
			h.row++
			continue
		}
		out.appendRow(h.cur, h.row-1, h.matches[h.matchPos])
		h.matchPos++
		h.ctrs.Rows++
		if out.Len() >= h.batch {
			return out, nil
		}
	}
	if out.Len() == 0 {
		return nil, nil
	}
	return out, nil
}

func (h *hashJoin) Describe(indent string) string {
	s := fmt.Sprintf("%sHashJoin %s as %s build=%v probe=%v", indent, h.rng, h.v, h.buildTerms, h.probeTerms)
	if len(h.buildPreds) > 0 {
		s += fmt.Sprintf(" pushdown=%v", h.buildPreds)
	}
	if h.presize > 0 {
		s += fmt.Sprintf(" presize=%d", h.presize)
	}
	s += "\n"
	return s + h.child.Describe(indent+"  ")
}

// --- buffered pipelining ------------------------------------------------

// buffered decouples its child behind a bounded channel: a producer
// goroutine pulls batches ahead of the consumer, so an expensive child
// (a scan evaluating lookups) overlaps with downstream work. Cancelling
// the run's context, exhausting the stream, or calling Close all
// terminate the producer; Close blocks until it has exited, so a closed
// plan never leaks a goroutine.
type buffered struct {
	child StreamOperator
	depth int

	ctx    context.Context
	cancel context.CancelFunc
	ch     chan *Batch
	errCh  chan error
	wg     sync.WaitGroup
	err    error
}

func (o *buffered) schema() *batchSchema { return o.child.schema() }

func (o *buffered) Open(ctx context.Context) error {
	if err := o.child.Open(ctx); err != nil {
		return err
	}
	o.ctx, o.cancel = context.WithCancel(ctx)
	o.ch = make(chan *Batch, o.depth)
	o.errCh = make(chan error, 1)
	o.err = nil
	o.wg.Add(1)
	go func() {
		defer o.wg.Done()
		defer close(o.ch)
		for {
			b, err := o.child.Next()
			if err != nil {
				o.errCh <- err
				return
			}
			if b == nil {
				return
			}
			select {
			case o.ch <- b:
			case <-o.ctx.Done():
				return
			}
		}
	}()
	return nil
}

func (o *buffered) Next() (*Batch, error) {
	if o.err != nil {
		return nil, o.err
	}
	select {
	case b, ok := <-o.ch:
		if !ok {
			// Producer finished: surface its error, if any.
			select {
			case err := <-o.errCh:
				o.err = err
				return nil, err
			default:
				return nil, nil
			}
		}
		return b, nil
	case err := <-o.errCh:
		o.err = err
		return nil, err
	case <-o.ctx.Done():
		return nil, o.ctx.Err()
	}
}

func (o *buffered) Close() error {
	if o.cancel != nil {
		o.cancel()
		// Drain so a producer blocked on send observes cancellation.
		for range o.ch {
		}
		o.wg.Wait()
		o.cancel = nil
	}
	return o.child.Close()
}

func (o *buffered) Counters() Counters { return o.child.Counters() }

func (o *buffered) Describe(indent string) string {
	return fmt.Sprintf("%sBuffer depth=%d\n", indent, o.depth) + o.child.Describe(indent+"  ")
}
