// E19: end-to-end query serving — the RunQueryLoad replay through
// Service.Query (the /query path) against a seeded star instance, so the
// replay measures planning AND measured execution per request.
package bench

import (
	"context"
	"fmt"

	"cnb/internal/service"
	"cnb/internal/workload"
)

// e19Scenario is the E19 setup: one seeded star instance plus a
// two-shape query mix over its schema (narrow projection and
// ProjectAll), so the replay exercises distinct plans against the same
// data.
type e19Scenario struct {
	Star *workload.Star // narrow-projection shape (owns the instance)
	Mix  []LoadQuery
	Gen  workload.StarGenOptions
}

// e19Setup builds the scenario at a CI-friendly tier: 20k fact rows with
// indexed access paths, so the delivered plans are index navigations and
// 160 executed requests stay cheap.
func e19Setup() (*e19Scenario, error) {
	cfg := workload.StarConfig{
		Dims: 2, FactIndexes: 1, DimKeyIndexes: 1, DimIndex: true,
		Select: true, SelectA: 3, FKConstraints: true,
	}
	narrow, err := workload.NewStar(cfg)
	if err != nil {
		return nil, err
	}
	cfgAll := cfg
	cfgAll.ProjectAll = true
	wide, err := workload.NewStar(cfgAll)
	if err != nil {
		return nil, err
	}
	mix := []LoadQuery{
		{Name: "star narrow", Req: service.Request{Query: narrow.Q, Deps: narrow.Deps, PhysicalNames: narrow.Physical.NameSet()}},
		{Name: "star project-all", Req: service.Request{Query: wide.Q, Deps: wide.Deps, PhysicalNames: wide.Physical.NameSet()}},
	}
	return &e19Scenario{
		Star: narrow,
		Mix:  mix,
		Gen:  workload.StarGenOptions{NumFact: 20_000, NumDim: 200, DomA: 20, Seed: 1901},
	}, nil
}

// e19Service builds a fresh serving-configuration Service with the
// scenario's instance installed and its synthetic statistics ranking
// candidates. Parallelism 1 keeps the candidate ranking — and hence the
// executed plan and its work counters — deterministic for the exact
// gates, mirroring E18.
func (sc *e19Scenario) service() (*service.Service, error) {
	svc := service.New(service.Options{
		Parallelism: 1,
		MinimalOnly: true,
		Stats:       sc.Star.SyntheticStats(sc.Gen),
	})
	if _, err := svc.InstallInstance("star", sc.Star.Generate(sc.Gen)); err != nil {
		return nil, err
	}
	return svc, nil
}

// E19 replays the E16-style load mix through the full query path:
// Optimize (plan cache + singleflight) followed by streaming execution
// of the delivered plan against a registered 20k-row star instance.
// Before the replay, both query shapes are differentially checked — the
// served result set must equal eval's evaluation of the original logical
// query — and the experiment hard-fails on any mismatch, so the
// correctness claim travels with the experiment.
//
// Headline expectations (gated by TestE19QueryLoad and, for the exact
// counters, cmd/benchcheck):
//
//   - hit rate and backchase runs behave exactly as in E16: two shapes,
//     two backchase runs, everything else served warm — execution does
//     not disturb the serving-layer invariants;
//   - the workers=1 pass is fully deterministic, so its total executed
//     work (query_evals / query_rows / query_out_rows / result_rows)
//     is exact-gated: any drift means the optimizer delivered a
//     different plan or the engine's accounting changed;
//   - zero error responses, zero skipped candidates on this instance.
func E19() (*Table, error) {
	sc, err := e19Setup()
	if err != nil {
		return nil, err
	}

	// Differential anchor: serve each shape once on a scratch service
	// and compare against eval's evaluation of the original logical
	// query on the same instance.
	scratch, err := sc.service()
	if err != nil {
		return nil, err
	}
	in := sc.Star.Generate(sc.Gen)
	_, err = replay(context.Background(), 1, sc.Mix, func(ctx context.Context, lq LoadQuery) error {
		got, err := scratch.Query(ctx, service.QueryRequest{Request: lq.Req, Instance: "star", MaxRows: -1})
		if err != nil {
			return fmt.Errorf("%s: query: %w", lq.Name, err)
		}
		if _, err := checkServed(got, lq.Req.Query, in); err != nil {
			return fmt.Errorf("%s: %w", lq.Name, err)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("E19 differential: %w", err)
	}

	tb := &Table{
		ID:      "E19",
		Title:   "End-to-end query serving: /query replay against a 20k-row star instance",
		Columns: loadColumns("hit rate", "backchase runs", "evals", "rows", "out rows"),
		Metrics: map[string]float64{},
	}
	const requests = 160
	cfg := LoadConfig{AlphaRate: 0.5, Seed: 19, Requests: requests}
	for _, workers := range []int{1, 4, 16} {
		svc, err := sc.service()
		if err != nil {
			return nil, err
		}
		cfg.Workers = workers
		res, err := RunQueryLoad(context.Background(), svc, sc.Mix, cfg, "star")
		if err != nil {
			return nil, fmt.Errorf("E19 workers=%d: %w", workers, err)
		}
		res.record(tb, workers,
			fmt.Sprintf("%.2f", res.HitRate),
			fmt.Sprintf("%d", res.Service.BackchaseRuns),
			fmt.Sprintf("%d", res.Evals),
			fmt.Sprintf("%d", res.Rows),
			fmt.Sprintf("%d", res.OutRows))
		if workers == 1 {
			// Deterministic pass: the executed work totals are gated
			// exactly by cmd/benchcheck (the _evals/_rows suffixes) next
			// to the serving counters record exports.
			tb.Metrics["query_evals"] = float64(res.Evals)
			tb.Metrics["query_rows"] = float64(res.Rows)
			tb.Metrics["query_out_rows"] = float64(res.OutRows)
			tb.Metrics["result_rows"] = float64(res.ResultRows)
			tb.Metrics["query_exec_skipped"] = float64(res.Skipped)
		}
	}
	tb.Notes = append(tb.Notes,
		fmt.Sprintf("mix: 2 star shapes (narrow + project-all) over one 20k-row instance, %d requests per worker count, alpha-rename rate 0.5, seed 19, MinimalOnly serving with synthetic stats", requests),
		"each request optimizes through the plan cache/singleflight, then executes the delivered plan on the streaming engine against the registered instance",
		"served result sets are differentially checked against eval before the replay; the experiment hard-fails on any mismatch",
		"workers=1 counters are deterministic and gated exactly (cache_hits, cache_misses, backchase_runs, hit_rate, query_evals, query_rows, query_out_rows, result_rows); wall-clock numbers are informational")
	return tb, nil
}
