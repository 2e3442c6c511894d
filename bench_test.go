// Package cnb_test holds the benchmark harness: one testing.B benchmark
// per experiment of EXPERIMENTS.md (regenerating the paper's artifacts)
// plus micro-benchmarks of the individual pipeline phases and of plan
// execution. Run with:
//
//	go test -bench=. -benchmem
package cnb_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"cnb/internal/backchase"
	"cnb/internal/bench"
	"cnb/internal/chase"
	"cnb/internal/core"
	"cnb/internal/cost"
	"cnb/internal/engine"
	"cnb/internal/eval"
	"cnb/internal/instance"
	"cnb/internal/optimizer"
	"cnb/internal/service"
	"cnb/internal/workload"
)

// --- experiment benchmarks (E1..E11) -------------------------------------

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	var run func() (*bench.Table, error)
	for _, e := range bench.All() {
		if e.ID == id {
			run = e.Run
		}
	}
	if run == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1UniversalPlan(b *testing.B) { benchExperiment(b, "E1") }
func BenchmarkE2Chase(b *testing.B)         { benchExperiment(b, "E2") }
func BenchmarkE3Minimize(b *testing.B)      { benchExperiment(b, "E3") }
func BenchmarkE4IndexOnly(b *testing.B)     { benchExperiment(b, "E4") }
func BenchmarkE5ViewIndex(b *testing.B)     { benchExperiment(b, "E5") }
func BenchmarkE6ChaseScaling(b *testing.B)  { benchExperiment(b, "E6") }
func BenchmarkE7Backchase(b *testing.B)     { benchExperiment(b, "E7") }
func BenchmarkE8PlanExecution(b *testing.B) { benchExperiment(b, "E8") }
func BenchmarkE9OptTime(b *testing.B)       { benchExperiment(b, "E9") }
func BenchmarkE10Gmap(b *testing.B)         { benchExperiment(b, "E10") }
func BenchmarkE11Semantic(b *testing.B)     { benchExperiment(b, "E11") }
func BenchmarkE12Parallel(b *testing.B)     { benchExperiment(b, "E12") }
func BenchmarkE13CostBounded(b *testing.B)  { benchExperiment(b, "E13") }
func BenchmarkE15IncChase(b *testing.B)     { benchExperiment(b, "E15") }
func BenchmarkE16ServeLoad(b *testing.B)    { benchExperiment(b, "E16") }

// BenchmarkServiceWarmOptimize measures the serving hot path: an
// Optimize request whose backchase is a plan-cache hit (chase + sharded
// cache lookup + best-plan ranking), the per-request cost every client
// after a shape's first pays.
func BenchmarkServiceWarmOptimize(b *testing.B) {
	pd := projDept(b)
	svc := service.New(service.Options{Parallelism: 1, MinimalOnly: true})
	req := service.Request{Query: pd.Q, Deps: pd.AllDeps(), PhysicalNames: pd.Physical.NameSet()}
	if _, err := svc.Optimize(context.Background(), req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := svc.Optimize(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if !resp.CacheHit {
			b.Fatal("warm request missed the plan cache")
		}
	}
}

// --- pipeline phase micro-benchmarks --------------------------------------

func projDept(b *testing.B) *workload.ProjDept {
	b.Helper()
	pd, err := workload.NewProjDept()
	if err != nil {
		b.Fatal(err)
	}
	return pd
}

// BenchmarkChaseProjDept measures phase 1 alone on the running example.
func BenchmarkChaseProjDept(b *testing.B) {
	pd := projDept(b)
	deps := pd.AllDeps()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chase.Chase(pd.Q, deps, chase.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChaseNaiveVsIncremental compares the textbook fixpoint with
// the delta-driven engine on the snowflake chase — the inner loop the
// PR 4 refactor targets. Results are byte-identical; only work differs.
func BenchmarkChaseNaiveVsIncremental(b *testing.B) {
	s, err := workload.NewStar(workload.StarConfig{
		Dims: 2, Views: 1, FactIndexes: 1, DimIndex: true,
		Select: true, SelectA: 3, FKConstraints: true, Snowflake: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name  string
		naive bool
	}{{"naive", true}, {"incremental", false}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := chase.Chase(s.Q, s.Deps, chase.Options{Naive: mode.naive}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBackchaseProjDept measures phase 2 (full enumeration) alone.
func BenchmarkBackchaseProjDept(b *testing.B) {
	pd := projDept(b)
	deps := pd.AllDeps()
	chased, err := chase.Chase(pd.Q, deps, chase.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := backchase.Enumerate(chased.Query, deps, backchase.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeProjDept measures Algorithm 1 end to end.
func BenchmarkOptimizeProjDept(b *testing.B) {
	pd := projDept(b)
	opts := optimizer.Options{Deps: pd.AllDeps(), PhysicalNames: pd.Physical.NameSet()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := optimizer.Optimize(pd.Q, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBackchaseParallel measures the worker-pool enumeration against
// the serial engine on a multi-scan workload: a chain query with
// adjacent-pair views, whose universal plan has many redundant scans and
// an exponential subquery lattice. Compare the Parallelism=1 and
// Parallelism=N sub-benchmarks for the speedup on the optimizer's hot
// path.
func BenchmarkBackchaseParallel(b *testing.B) {
	c, err := workload.NewChain(5, 4)
	if err != nil {
		b.Fatal(err)
	}
	chased, err := chase.Chase(c.Q, c.Deps, chase.Options{})
	if err != nil {
		b.Fatal(err)
	}
	pars := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		pars = append(pars, n)
	}
	for _, par := range pars {
		b.Run(fmt.Sprintf("workers=%d", par), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := backchase.Enumerate(chased.Query, c.Deps, backchase.Options{Parallelism: par}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBackchasePruned compares exhaustive enumeration against the
// cost-bounded best-first search on the star workload: same cheapest
// plan cost, strictly fewer lattice states chased. The pruned/exhaustive
// state counts are reported as custom metrics.
func BenchmarkBackchasePruned(b *testing.B) {
	s, err := workload.NewStar(workload.StarConfig{
		Dims: 2, Views: 2, FactIndexes: 1, DimIndex: true,
		Select: true, SelectA: 3, FKConstraints: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	chased, err := chase.Chase(s.Q, s.Deps, chase.Options{})
	if err != nil {
		b.Fatal(err)
	}
	stats := cost.FromInstance(s.Generate(workload.StarGenOptions{
		NumFact: 6000, NumDim: 3000, NumSub: 1000, DomA: 1000, Seed: 1,
	}))
	run := func(b *testing.B, opts backchase.Options) {
		b.ReportAllocs()
		var states, pruned int
		for i := 0; i < b.N; i++ {
			res, err := backchase.Enumerate(chased.Query, s.Deps, opts)
			if err != nil {
				b.Fatal(err)
			}
			states, pruned = res.States, res.Pruned
		}
		b.ReportMetric(float64(states), "states")
		b.ReportMetric(float64(pruned), "pruned")
	}
	b.Run("exhaustive", func(b *testing.B) { run(b, backchase.Options{}) })
	b.Run("pruned", func(b *testing.B) { run(b, backchase.Options{Stats: stats}) })
}

// BenchmarkBackchasePrunedTight A/B-tests the PR-3 dictionary-aware
// admissible bound against PR 2's scan-only floor on the star and
// snowflake workloads: identical cheapest cost, strictly fewer lattice
// states chased under the tight bound. States/pruned are reported as
// custom metrics for the nightly perf trajectory.
func BenchmarkBackchasePrunedTight(b *testing.B) {
	workloads := []struct {
		name string
		cfg  workload.StarConfig
	}{
		{"star", workload.StarConfig{
			Dims: 2, Views: 2, FactIndexes: 1, DimIndex: true,
			Select: true, SelectA: 3, FKConstraints: true,
		}},
		{"snowflake", workload.StarConfig{
			Dims: 2, Views: 1, FactIndexes: 1, DimIndex: true, Snowflake: true,
			Select: true, SelectA: 3, FKConstraints: true,
		}},
	}
	for _, wl := range workloads {
		s, err := workload.NewStar(wl.cfg)
		if err != nil {
			b.Fatal(err)
		}
		chased, err := chase.Chase(s.Q, s.Deps, chase.Options{})
		if err != nil {
			b.Fatal(err)
		}
		stats := cost.FromInstance(s.Generate(workload.StarGenOptions{
			NumFact: 6000, NumDim: 3000, NumSub: 1000, DomA: 1000, Seed: 1,
		}))
		run := func(b *testing.B, opts backchase.Options) {
			b.ReportAllocs()
			var states, pruned int
			var best float64
			for i := 0; i < b.N; i++ {
				res, err := backchase.Enumerate(chased.Query, s.Deps, opts)
				if err != nil {
					b.Fatal(err)
				}
				states, pruned, best = res.States, res.Pruned, res.BestCost
			}
			b.ReportMetric(float64(states), "states")
			b.ReportMetric(float64(pruned), "pruned")
			b.ReportMetric(best, "best-cost")
		}
		b.Run(wl.name+"/scanfloor", func(b *testing.B) {
			run(b, backchase.Options{Stats: stats, ScanOnlyBound: true})
		})
		b.Run(wl.name+"/tight", func(b *testing.B) {
			run(b, backchase.Options{Stats: stats})
		})
	}
}

// BenchmarkMinimizeGreedy measures the greedy single-plan backchase.
func BenchmarkMinimizeGreedy(b *testing.B) {
	pd := projDept(b)
	deps := pd.AllDeps()
	chased, err := chase.Chase(pd.Q, deps, chase.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := backchase.MinimizeOne(chased.Query, deps, backchase.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- plan execution benchmarks (the physical premise) ---------------------

func projDeptPlans() (p2, p3, p4 *core.Query) {
	v, n, prj, lk, lknf := core.V, core.Name, core.Prj, core.Lk, core.LkNF
	out := core.Struct(
		core.SF("PN", prj(v("p"), "PName")),
		core.SF("PB", prj(v("p"), "Budg")),
		core.SF("DN", prj(v("p"), "PDept")),
	)
	p2 = &core.Query{
		Out:      out,
		Bindings: []core.Binding{{Var: "p", Range: n("Proj")}},
		Conds:    []core.Cond{{L: prj(v("p"), "CustName"), R: core.C("CitiBank")}},
	}
	p3 = &core.Query{
		Out:      out,
		Bindings: []core.Binding{{Var: "p", Range: lknf(n("SI"), core.C("CitiBank"))}},
	}
	p4 = &core.Query{
		Out: core.Struct(
			core.SF("PN", prj(v("j"), "PN")),
			core.SF("PB", prj(lk(n("I"), prj(v("j"), "PN")), "Budg")),
			core.SF("DN", prj(lk(n("Dept"), prj(v("j"), "DOID")), "DName")),
		),
		Bindings: []core.Binding{{Var: "j", Range: n("JI")}},
		Conds: []core.Cond{
			{L: prj(lk(n("I"), prj(v("j"), "PN")), "CustName"), R: core.C("CitiBank")},
		},
	}
	return p2, p3, p4
}

func benchPlan(b *testing.B, q *core.Query, in *instance.Instance) {
	b.Helper()
	plan, err := engine.CompileStream(q, in, engine.StreamOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func genSelective(b *testing.B) *instance.Instance {
	b.Helper()
	pd := projDept(b)
	return pd.Generate(workload.GenOptions{
		NumDepts: 500, ProjsPerDept: 10, CitiBankShare: 0.002, Seed: 3,
	})
}

// At 0.2% selectivity over 5000 projects, the scan (P2) pays for the whole
// relation while the index plans (P3, P4) touch only matches: the paper's
// physical premise, measured.
func BenchmarkExecP2ScanSelective(b *testing.B) {
	p2, _, _ := projDeptPlans()
	benchPlan(b, p2, genSelective(b))
}

func BenchmarkExecP3IndexSelective(b *testing.B) {
	_, p3, _ := projDeptPlans()
	benchPlan(b, p3, genSelective(b))
}

func BenchmarkExecP4JoinIndexSelective(b *testing.B) {
	_, _, p4 := projDeptPlans()
	benchPlan(b, p4, genSelective(b))
}

// --- reference evaluator vs engine ----------------------------------------

func BenchmarkEvalNaiveQ(b *testing.B) {
	pd := projDept(b)
	in := pd.Generate(workload.GenOptions{NumDepts: 20, ProjsPerDept: 5, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.QueryEager(pd.Q, in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineQ(b *testing.B) {
	pd := projDept(b)
	in := pd.Generate(workload.GenOptions{NumDepts: 20, ProjsPerDept: 5, Seed: 1})
	benchPlan(b, pd.Q, in)
}

// --- cost model -----------------------------------------------------------

func BenchmarkCostEstimate(b *testing.B) {
	pd := projDept(b)
	in := pd.Generate(workload.GenOptions{Seed: 1})
	stats := cost.FromInstance(in)
	p2, p3, p4 := projDeptPlans()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.Estimate(p2)
		stats.Estimate(p3)
		stats.Estimate(p4)
	}
}
