// E16/E17: plan-only serving under load — the replay mixes, and the
// RunLoad replay at 1/4/16 workers measuring throughput, latency
// percentiles and cache effectiveness. The CI service-load job runs the
// harness under the race detector.
package bench

import (
	"context"
	"fmt"

	"cnb/internal/core"
	"cnb/internal/service"
	"cnb/internal/workload"
)

// ServeMix returns the E16 replay mix: the three E13 star/snowflake
// scenarios, optimized against their own dependency sets. No statistics
// are installed — the exhaustive backchase is deterministic and its cache
// entries are statistics-independent, so the measured hit rates isolate
// the serving layer from cost-model variance.
func ServeMix() ([]LoadQuery, error) {
	var mix []LoadQuery
	for _, wl := range e13Workloads() {
		s, err := workload.NewStar(wl.Cfg)
		if err != nil {
			return nil, err
		}
		mix = append(mix, LoadQuery{Name: wl.Name, Req: service.Request{Query: s.Q, Deps: s.Deps}})
	}
	return mix, nil
}

// SmallServeMix returns a cheaper mix (single-dimension star and
// snowflake plus the ProjDept running example) for race-detector and
// -short runs, where the full E13 lattices would dominate the budget.
func SmallServeMix() ([]LoadQuery, error) {
	var mix []LoadQuery
	small := workload.StarConfig{
		Dims: 1, Views: 1, FactIndexes: 1, DimIndex: true,
		Select: true, SelectA: 3, FKConstraints: true,
	}
	snow := small
	snow.Snowflake = true
	for _, c := range []struct {
		name string
		cfg  workload.StarConfig
	}{{"star d=1 v=1", small}, {"snowflake d=1 v=1", snow}} {
		s, err := workload.NewStar(c.cfg)
		if err != nil {
			return nil, err
		}
		mix = append(mix, LoadQuery{Name: c.name, Req: service.Request{Query: s.Q, Deps: s.Deps}})
	}
	pd, err := workload.NewProjDept()
	if err != nil {
		return nil, err
	}
	mix = append(mix, LoadQuery{Name: "projdept", Req: service.Request{
		Query:         pd.Q,
		Deps:          pd.AllDeps(),
		PhysicalNames: pd.Physical.NameSet(),
	}})
	return mix, nil
}

// E16 measures the serving layer under concurrent load: closed-loop
// workers replay the star/snowflake mix (half the requests alpha-renamed)
// against a fresh Service per worker count. Headline expectations (gated
// by TestE16ServeLoad and, for the exact counters, cmd/benchcheck):
//
//   - cache hit rate >= 50% on every worker count (repeated and
//     alpha-renamed shapes are served from the sharded plan cache);
//   - total backchase runs stay at the number of distinct shapes —
//     sublinear in the request count — because singleflight coalescing
//     and the cache make every later request O(chase + lookup);
//   - zero error responses.
//
// The workers=1 pass is fully deterministic (seeded schedule, serial
// service), so its cache_hits / cache_misses / backchase_runs metrics are
// gated exactly by the bench-regression pipeline; wall-clock derived
// numbers (throughput, p50/p99) are informational — CI runners are noisy.
func E16() (*Table, error) {
	mix, err := ServeMix()
	if err != nil {
		return nil, err
	}
	return serveLoadTable("E16", "Optimizer-as-a-service: load replay at 1/4/16 workers",
		mix, LoadConfig{AlphaRate: 0.5, Seed: 16})
}

// E17Mix extends the E16 mix with an asymmetric self-join over the
// IndexOnly relational scenario:
//
//	select struct(C1: r.C, C2: s.C) from R r, R s where r.A = s.B
//
// Two bindings range over the same relation R, so canonicalizing the
// binding order must break a tie between alpha-equivalent ranges — the
// exact spot where a raw-variable-name tie-break canonicalizes
// order-shuffled renames apart (and where swapping the bindings is NOT an
// automorphism: the condition and output tell r and s apart). The E16
// star/snowflake shapes never reach that tie-break (every binding ranges
// over a distinct schema name or a distinct dependent path), which is why
// the seed defect was invisible to E16 even under shuffled renames.
func E17Mix() ([]LoadQuery, error) {
	mix, err := ServeMix()
	if err != nil {
		return nil, err
	}
	io, err := workload.NewIndexOnly(5, 9)
	if err != nil {
		return nil, err
	}
	q := &core.Query{
		Out: core.Struct(
			core.SF("C1", core.Prj(core.V("r"), "C")),
			core.SF("C2", core.Prj(core.V("s"), "C")),
		),
		Bindings: []core.Binding{
			{Var: "r", Range: core.Name("R")},
			{Var: "s", Range: core.Name("R")},
		},
		Conds: []core.Cond{{L: core.Prj(core.V("r"), "A"), R: core.Prj(core.V("s"), "B")}},
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	mix = append(mix, LoadQuery{Name: "selfjoin R", Req: service.Request{Query: q, Deps: io.Deps}})
	return mix, nil
}

// E17 is E16's adversarial twin: every request is an order-shuffling
// alpha-rename of its shape (LoadConfig.AlphaShuffle), the rename class
// the seed code's raw-name canonicalization tie-break split apart. With
// the renaming-invariant canonical form the shuffled replay must behave
// exactly like the order-preserving one: hit rate equal to a verbatim
// repeat of the mix, backchase runs equal to the distinct-shape count.
// The workers=1 counters are gated exactly by cmd/benchcheck, so any
// future canonicalization regression that is invisible to
// order-preserving renames fails CI here.
func E17() (*Table, error) {
	mix, err := E17Mix()
	if err != nil {
		return nil, err
	}
	// AlphaRate 0.5 mirrors E16: the verbatim half of the replay anchors
	// the original binding/name order, so a canonicalization that depends
	// on raw names must split the renamed half of the self-join shape
	// into a second class (a measured extra backchase run + misses),
	// while a renaming-invariant form keeps hit rate identical to E16's
	// order-preserving replay. At rate 1.0 the two-variable self-join
	// would only ever be seen reversed — one class, no split, no gate.
	return serveLoadTable("E17", "Serving under order-shuffling alpha-renames (canonicalization gate)",
		mix, LoadConfig{AlphaRate: 0.5, AlphaShuffle: true, Seed: 17})
}

// serveLoadTable runs the shared E16/E17 load replay: the mix against a
// fresh Service per worker count, with the alpha-rename policy taken from
// cfg (AlphaRate, AlphaShuffle, Seed).
func serveLoadTable(id, title string, mix []LoadQuery, cfg LoadConfig) (*Table, error) {
	tb := &Table{
		ID:      id,
		Title:   title,
		Columns: loadColumns("hits", "misses", "hit rate", "coalesced", "backchase runs"),
		Metrics: map[string]float64{},
	}
	const requests = 160
	cfg.Requests = requests
	for _, workers := range []int{1, 4, 16} {
		// MinimalOnly is the serving configuration: the backchase (and
		// hence the cache entry and every gated counter) is identical,
		// but a cache-hit request skips re-ranking hundreds of explored
		// lattice states it will never execute — the difference between
		// ~50ms and ~1ms warm latency on this mix.
		svc := service.New(service.Options{Parallelism: Parallelism, MinimalOnly: true})
		cfg.Workers = workers
		res, err := RunLoad(context.Background(), svc, mix, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s workers=%d: %w", id, workers, err)
		}
		res.record(tb, workers,
			fmt.Sprintf("%d", res.Cache.Hits),
			fmt.Sprintf("%d", res.Cache.Misses),
			fmt.Sprintf("%.2f", res.HitRate),
			fmt.Sprintf("%d", res.Service.Coalesced),
			fmt.Sprintf("%d", res.Service.BackchaseRuns))
	}
	renames := "order-preserving"
	if cfg.AlphaShuffle {
		renames = "order-shuffling"
	}
	tb.Notes = append(tb.Notes,
		fmt.Sprintf("mix: %d star/snowflake shapes, %d requests per worker count, %s alpha-rename rate %g, seed %d, MinimalOnly serving", len(mix), requests, renames, cfg.AlphaRate, cfg.Seed),
		"workers=1 counters are deterministic and gated exactly (cache_hits, cache_misses, backchase_runs); wall-clock numbers are informational",
		"backchase runs == distinct shapes: every other request is served by the plan cache or coalesced onto an in-progress flight")
	return tb, nil
}
