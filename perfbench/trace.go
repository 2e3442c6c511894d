package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"cnb/internal/backchase"
	"cnb/internal/chase"
	"cnb/internal/core"
	"cnb/internal/cost"
	"cnb/internal/engine"
	"cnb/internal/eval"
	"cnb/internal/instance"
	"cnb/internal/planrewrite"
	"cnb/internal/service"
)

// span is one timed call of the traced run. Spans are kept in memory
// and written out when the traced run ends.
type span struct {
	id, parent int // parent is -1 for a root span
	req        int // request index the span belongs to
	name       string
	start, end time.Duration // since the tracer's epoch
	allocs     uint64        // heap objects allocated while it was open
}

// tracer records spans around the benchmark's calls into each layer.
// It is used from one goroutine.
type tracer struct {
	epoch  time.Time
	spans  []span
	stack  []int
	req    int
	sample []metrics.Sample
}

const allocsMetric = "/gc/heap/allocs:objects"

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), sample: []metrics.Sample{{Name: allocsMetric}}}
}

func (t *tracer) allocs() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

// run wraps f in a span named name, a child of the innermost open span.
func (t *tracer) run(name string, f func()) {
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{id: id, parent: parent, req: t.req, name: name})
	t.stack = append(t.stack, id)
	a0 := t.allocs()
	t.spans[id].start = time.Since(t.epoch)
	f()
	t.spans[id].end = time.Since(t.epoch)
	t.spans[id].allocs = t.allocs() - a0
	t.stack = t.stack[:len(t.stack)-1]
}

// write stores every span as one JSON line, times in nanoseconds since
// the tracer's epoch.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range t.spans {
		if err := enc.Encode(map[string]any{
			"id": s.id, "parent": s.parent, "request": s.req, "name": s.name,
			"start_ns": s.start.Nanoseconds(), "end_ns": s.end.Nanoseconds(), "allocs": s.allocs,
		}); err != nil {
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

// Root span names of a traced request, and the layer each layer span
// belongs to.
const (
	spanService = "service"
	spanEncode  = "encode"
	spanReplay  = "replay"
)

var spanLayer = map[string]string{
	"core.canon":     "core",
	"chase.index":    "chase",
	"chase.run":      "chase",
	"backchase":      "backchase",
	"rewrite":        "rewrite",
	"rank":           "rank",
	"engine.compile": "engine",
	"engine.run":     "engine",
	"engine.measure": "engine",
}

// layers lists the layers inside the service call, in call order.
var layers = []string{"core", "chase", "backchase", "rewrite", "rank", "engine"}

// replayer re-issues a request through the layer calls the Service
// makes for it, against the benchmark's own plan cache and chase
// metrics, with the options a zero-value service.Options gives.
type replayer struct {
	cache   *backchase.PlanCache
	metrics *chase.Metrics
}

func newReplayer() *replayer {
	return &replayer{
		cache:   backchase.NewPlanCacheSharded(backchase.DefaultPlanCacheSize, backchase.DefaultPlanCacheShards),
		metrics: &chase.Metrics{},
	}
}

// replayCounts are the work counts of one replayed request.
type replayCounts struct {
	states, candIn, candOut, ranked int
	measure                         engine.Measure
	skipped                         int
}

// optimize replays optimizer.OptimizeContext as Service.Optimize calls
// it, preceded by the canonical signature the Service keys its flight
// with. Every layer call runs in its own span.
func (r *replayer) optimize(ctx context.Context, t *tracer, req service.Request, st *cost.Stats) ([]cost.RankedPlan, replayCounts, error) {
	var rc replayCounts
	t.run("core.canon", func() { _ = req.Query.CanonicalSignature() })
	copts := chase.Options{Metrics: r.metrics}
	var ix *chase.DepIndex
	t.run("chase.index", func() { ix = chase.NewDepIndex(req.Deps) })
	var (
		chased *chase.Result
		err    error
	)
	t.run("chase.run", func() { chased, err = chase.ChaseIndexed(ctx, req.Query, ix, copts) })
	if err != nil {
		return nil, rc, fmt.Errorf("chase: %w", err)
	}
	if st == nil {
		st = cost.NewStats()
	}
	if chased.Inconsistent {
		var ranked []cost.RankedPlan
		t.run("rank", func() { ranked = st.Rank([]*core.Query{req.Query.Clone()}) })
		rc.ranked = len(ranked)
		return ranked, rc, nil
	}
	var enum *backchase.Result
	t.run("backchase", func() {
		enum, err = backchase.EnumerateContext(ctx, chased.Query, req.Deps, backchase.Options{
			Chase: copts, Index: ix, Cache: r.cache,
		})
	})
	if err != nil {
		return nil, rc, fmt.Errorf("backchase: %w", err)
	}
	rc.states = enum.States
	var executable []*core.Query
	t.run("rewrite", func() {
		// cnbd's options keep every explored state in the pool.
		pool := append(append([]*core.Query(nil), enum.Plans...), enum.Explored...)
		var plans []*core.Query
		for _, p := range pool {
			if physicalOnly(p, req.PhysicalNames) {
				plans = append(plans, p)
			}
		}
		if len(plans) == 0 {
			plans = pool
		}
		rc.candIn = len(plans)
		seen := map[string]bool{}
		for _, p := range plans {
			s := planrewrite.SimplifyLookups(p)
			if sig := s.CanonicalSignature(); !seen[sig] {
				seen[sig] = true
				executable = append(executable, s)
			}
		}
		rc.candOut = len(executable)
	})
	var ranked []cost.RankedPlan
	t.run("rank", func() { ranked = st.Rank(executable) })
	rc.ranked = len(ranked)
	return ranked, rc, nil
}

func physicalOnly(p *core.Query, names map[string]bool) bool {
	if names == nil {
		return true
	}
	for n := range p.Names() {
		if !names[n] {
			return false
		}
	}
	return true
}

// execute replays Service.Query's delivery loop: compile, run and
// measure the cheapest candidate, passing over candidates whose lookups
// fail on the instance.
func (r *replayer) execute(ctx context.Context, t *tracer, ranked []cost.RankedPlan, in *instance.Instance, st *cost.Stats, rc *replayCounts) (outcome, error) {
	for _, cand := range ranked {
		var (
			p   *engine.StreamPlan
			out *instance.Set
			err error
		)
		t.run("engine.compile", func() {
			p, err = engine.CompileStream(cand.Query, in, engine.StreamOptions{Stats: st, Buffer: 2})
		})
		if err != nil {
			return outcome{}, fmt.Errorf("compile: %w", err)
		}
		t.run("engine.run", func() { out, err = p.Run(ctx) })
		if err != nil {
			var lf *eval.ErrLookupFailed
			if errors.As(err, &lf) {
				rc.skipped++
				continue
			}
			return outcome{}, fmt.Errorf("execute: %w", err)
		}
		t.run("engine.measure", func() { rc.measure = p.Measure() })
		return outcome{
			plan:       cand.Query.String(),
			cost:       cand.Cost,
			candidates: len(ranked),
			resultRows: out.Len(),
			rows:       capRows(out),
			skipped:    rc.skipped,
		}, nil
	}
	return outcome{}, fmt.Errorf("no executable plan among %d candidates", len(ranked))
}

// capRows keeps the first service.DefaultMaxResultRows rows in key
// order, the rows cnbd returns at its default row cap.
func capRows(out *instance.Set) []instance.Value {
	elems := out.Elems()
	if len(elems) > service.DefaultMaxResultRows {
		elems = elems[:service.DefaultMaxResultRows]
	}
	return elems
}

// requestTrace is the decomposition of one traced request.
type requestTrace struct {
	service, encode time.Duration
	self            map[string]time.Duration // layer -> self time
	allocs          map[string]uint64        // layer -> allocations
	overhead        time.Duration            // service span minus its layer spans
	engineCompile   time.Duration
	counts          replayCounts
	chaseSteps      int64
	homTests        int64
	cacheHits       int64
	cacheMisses     int64
	encodedBytes    int
}

// decompose splits the spans of request req into layer self times and
// the service overhead, and checks that the split is exact: the layer
// spans nest inside the replay span, and the layer self times plus the
// overhead add up to the service span to the nanosecond.
func decompose(spans []span, req int) (*requestTrace, error) {
	rt := &requestTrace{self: map[string]time.Duration{}, allocs: map[string]uint64{}}
	children := map[int][]span{}
	var replay *span
	for i := range spans {
		s := spans[i]
		if s.req != req {
			continue
		}
		if s.end < s.start {
			return nil, fmt.Errorf("span %s ends before it starts", s.name)
		}
		switch {
		case s.parent >= 0:
			children[s.parent] = append(children[s.parent], s)
		case s.name == spanService:
			rt.service += s.end - s.start
		case s.name == spanEncode:
			rt.encode += s.end - s.start
		case s.name == spanReplay:
			replay = &spans[i]
		default:
			return nil, fmt.Errorf("unexpected root span %q", s.name)
		}
	}
	if replay == nil {
		return nil, fmt.Errorf("request %d has no replay span", req)
	}
	var layerTotal time.Duration
	for _, c := range children[replay.id] {
		layer, ok := spanLayer[c.name]
		if !ok {
			return nil, fmt.Errorf("span %q belongs to no layer", c.name)
		}
		if c.start < replay.start || c.end > replay.end {
			return nil, fmt.Errorf("span %s lies outside its parent", c.name)
		}
		if len(children[c.id]) > 0 {
			return nil, fmt.Errorf("layer span %s has child spans", c.name)
		}
		d := c.end - c.start
		rt.self[layer] += d
		rt.allocs[layer] += c.allocs
		layerTotal += d
		if c.name == "engine.compile" {
			rt.engineCompile += d
		}
	}
	rt.overhead = rt.service - layerTotal
	sum := rt.overhead
	for _, l := range layers {
		sum += rt.self[l]
	}
	if sum != rt.service {
		return nil, fmt.Errorf("layer self times plus overhead %v != service span %v", sum, rt.service)
	}
	return rt, nil
}
