package engine

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"cnb/internal/core"
	"cnb/internal/eval"
	"cnb/internal/instance"
	"cnb/internal/workload"
)

// streamVariants is the option matrix the semantic tests sweep: hash and
// nested strategies, degenerate and straddling batch sizes, with and
// without a prefetch buffer.
func streamVariants() []StreamOptions {
	return []StreamOptions{
		{},
		{BatchSize: 1},
		{BatchSize: 2, Buffer: 2},
		{BatchSize: 3},
		{NoHashJoin: true},
		{NoHashJoin: true, BatchSize: 1},
		{Buffer: 1, BatchSize: 7},
	}
}

// TestStreamMatchesEvalOnChain: every option variant must reproduce the
// reference evaluator's result set on the lookup-chain instance.
func TestStreamMatchesEvalOnChain(t *testing.T) {
	in := chainInstance()
	queries := []*core.Query{
		{ // non-failing lookup chain with holes
			Out: core.Prj(core.V("h"), "B"),
			Bindings: []core.Binding{
				{Var: "r", Range: core.LkNF(core.Name("IDX"), core.C("hit"))},
				{Var: "h", Range: core.LkNF(core.Name("HOP"), core.Prj(core.V("r"), "K"))},
			},
		},
		{ // pushdown predicate on the scanned variable
			Out: core.Prj(core.V("r"), "K"),
			Bindings: []core.Binding{
				{Var: "r", Range: core.LkNF(core.Name("IDX"), core.C("hit"))},
			},
			Conds: []core.Cond{{L: core.Prj(core.V("r"), "A"), R: core.C(int64(20))}},
		},
		{ // constant condition deciding the whole run
			Out: core.Prj(core.V("r"), "K"),
			Bindings: []core.Binding{
				{Var: "r", Range: core.LkNF(core.Name("IDX"), core.C("hit"))},
			},
			Conds: []core.Cond{{L: core.C(int64(1)), R: core.C(int64(2))}},
		},
	}
	for qi, q := range queries {
		want, err := eval.QueryEager(q, in)
		if err != nil {
			t.Fatalf("q%d eval: %v", qi, err)
		}
		for vi, opts := range streamVariants() {
			got, err := StreamExecute(context.Background(), q, in, opts)
			if err != nil {
				t.Fatalf("q%d variant %d: %v", qi, vi, err)
			}
			if !got.Equal(want) {
				t.Fatalf("q%d variant %d: stream %s != eval %s", qi, vi, got, want)
			}
		}
	}
}

// TestStreamScanPushdownCounters pins the exact counter semantics of a
// leaf scan with a pushed-down predicate: one Eval for the range
// evaluation, one Eval per candidate row checked, and Rows counting only
// survivors. These numbers are what the E18 gates record, so they must
// be stable across runs and batch sizes.
func TestStreamScanPushdownCounters(t *testing.T) {
	in := chainInstance()
	q := &core.Query{
		Out: core.Prj(core.V("r"), "K"),
		Bindings: []core.Binding{
			{Var: "r", Range: core.LkNF(core.Name("IDX"), core.C("hit"))},
		},
		Conds: []core.Cond{{L: core.Prj(core.V("r"), "A"), R: core.C(int64(20))}},
	}
	for _, bs := range []int{0, 1, 2} {
		p, err := CompileStream(q, in, StreamOptions{BatchSize: bs})
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 2; run++ {
			out, err := p.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if out.Len() != 1 {
				t.Fatalf("batch=%d: got %d rows, want 1", bs, out.Len())
			}
			m := p.Measure()
			// 1 range eval + 3 candidate checks; 1 surviving row; 1 projected.
			if m.Evals != 4 || m.Rows != 1 || m.OutRows != 1 {
				t.Fatalf("batch=%d run=%d: Measure = %+v, want Evals=4 Rows=1 OutRows=1", bs, run, m)
			}
		}
	}
}

// TestHashJoinStraddle drives a hash join whose probe matches straddle
// batch boundaries: with BatchSize=2 and fanout-2 build buckets, output
// batches fill mid-probe-row and the operator must resume from a
// partially consumed match list.
func TestHashJoinStraddle(t *testing.T) {
	in := instance.NewInstance()
	in.Bind("R", instance.NewSet(
		instance.StructOf("K", instance.Int(1)),
		instance.StructOf("K", instance.Int(2)),
		instance.StructOf("K", instance.Int(3)),
	))
	in.Bind("S", instance.NewSet(
		instance.StructOf("K", instance.Int(1), "B", instance.Int(10)),
		instance.StructOf("K", instance.Int(1), "B", instance.Int(11)),
		instance.StructOf("K", instance.Int(2), "B", instance.Int(20)),
		instance.StructOf("K", instance.Int(2), "B", instance.Int(21)),
	))
	q := &core.Query{
		Out: core.Struct(
			core.SF("K", core.Prj(core.V("f"), "K")),
			core.SF("B", core.Prj(core.V("s"), "B")),
		),
		Bindings: []core.Binding{
			{Var: "f", Range: core.Name("R")},
			{Var: "s", Range: core.Name("S")},
		},
		Conds: []core.Cond{{L: core.Prj(core.V("s"), "K"), R: core.Prj(core.V("f"), "K")}},
	}
	want, err := eval.QueryEager(q, in)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := CompileStream(q, in, StreamOptions{BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(hash.Explain(), "HashJoin") {
		t.Fatalf("expected a hash join:\n%s", hash.Explain())
	}
	got, err := hash.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("hash join: %s != %s", got, want)
	}
	// The hash strategy must do measurably less work than rescanning S
	// per probe row.
	nested, err := CompileStream(q, in, StreamOptions{BatchSize: 2, NoHashJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	ngot, err := nested.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !ngot.Equal(want) {
		t.Fatalf("nested: %s != %s", ngot, want)
	}
	if hc, nc := hash.Measure().Cost(), nested.Measure().Cost(); hc >= nc {
		t.Fatalf("hash join cost %v not below nested scan cost %v", hc, nc)
	}
}

// TestStreamEmptyInputs exercises the degenerate shapes: empty base
// collections (operators must emit no batches, not empty batches) and a
// predicate rejecting every row.
func TestStreamEmptyInputs(t *testing.T) {
	in := instance.NewInstance()
	in.Bind("R", instance.NewSet())
	in.Bind("S", instance.NewSet(instance.StructOf("K", instance.Int(1))))
	queries := []*core.Query{
		{
			Out:      core.Prj(core.V("r"), "K"),
			Bindings: []core.Binding{{Var: "r", Range: core.Name("R")}},
		},
		{
			Out: core.Prj(core.V("s"), "K"),
			Bindings: []core.Binding{
				{Var: "r", Range: core.Name("R")},
				{Var: "s", Range: core.Name("S")},
			},
			Conds: []core.Cond{{L: core.Prj(core.V("s"), "K"), R: core.Prj(core.V("r"), "K")}},
		},
		{
			Out:      core.Prj(core.V("s"), "K"),
			Bindings: []core.Binding{{Var: "s", Range: core.Name("S")}},
			Conds:    []core.Cond{{L: core.Prj(core.V("s"), "K"), R: core.C(int64(99))}},
		},
	}
	for qi, q := range queries {
		for vi, opts := range streamVariants() {
			got, err := StreamExecute(context.Background(), q, in, opts)
			if err != nil {
				t.Fatalf("q%d variant %d: %v", qi, vi, err)
			}
			if got.Len() != 0 {
				t.Fatalf("q%d variant %d: want empty result, got %s", qi, vi, got)
			}
		}
	}
}

// TestStreamFailingLookup: a failing lookup on an absent key must surface
// *eval.ErrLookupFailed exactly like eval does, so the skip
// classification of calibration and Service.Query can rely on it.
func TestStreamFailingLookup(t *testing.T) {
	in := chainInstance()
	q := &core.Query{
		Out: core.Prj(core.V("h"), "B"),
		Bindings: []core.Binding{
			{Var: "r", Range: core.LkNF(core.Name("IDX"), core.C("hit"))},
			{Var: "h", Range: core.Lk(core.Name("HOP"), core.Prj(core.V("r"), "K"))},
		},
	}
	if _, err := eval.QueryEager(q, in); err == nil {
		t.Fatal("eval should fail on missing HOP key")
	}
	for vi, opts := range streamVariants() {
		_, err := StreamExecute(context.Background(), q, in, opts)
		var lf *eval.ErrLookupFailed
		if !errors.As(err, &lf) {
			t.Fatalf("variant %d: want ErrLookupFailed, got %v", vi, err)
		}
	}
}

// TestStreamEarlyTermination cancels a buffered run mid-stream and
// verifies (a) the pending Next observes the cancellation, (b) Close
// reaps the prefetch goroutine — the goroutine count returns to its
// pre-run baseline.
func TestStreamEarlyTermination(t *testing.T) {
	st, err := workload.NewStar(workload.StarConfig{Dims: 2, FactIndexes: 1, DimIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	in := st.Generate(workload.StarGenOptions{NumFact: 2000, NumDim: 50, DomA: 10, Seed: 5})

	before := runtime.NumGoroutine()
	p, err := CompileStream(st.Q, in, StreamOptions{BatchSize: 8, Buffer: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := p.root.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := p.root.Next(); err != nil {
		t.Fatal(err)
	}
	cancel()
	// The producer may deliver batches it had already buffered, but must
	// quickly surface the cancellation.
	deadline := time.Now().Add(5 * time.Second)
	for {
		b, err := p.root.Next()
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			break
		}
		if b == nil || time.Now().After(deadline) {
			t.Fatal("cancelled run drained to completion without surfacing ctx.Err")
		}
	}
	if err := p.root.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		if runtime.NumGoroutine() <= before {
			break
		}
		if i > 100 {
			t.Fatalf("goroutine leak: %d before run, %d after Close", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Run itself must also propagate pre-cancelled contexts.
	done, cancelled := context.WithCancel(context.Background())
	cancelled()
	if _, err := p.Run(done); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on cancelled ctx: want context.Canceled, got %v", err)
	}
}

// TestStreamDifferentialRandom is the randomized semantic gate: on 100
// random star/snowflake instances the streaming engine (both physical
// strategies, varying batch sizes and buffering) must produce exactly
// the reference evaluator's result set.
func TestStreamDifferentialRandom(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	batches := []int{1, 2, 7, 64, 0}
	for i := 0; i < 100; i++ {
		cfg, gen := workload.RandomStar(r)
		st, err := workload.NewStar(cfg)
		if err != nil {
			t.Fatal(err)
		}
		in := st.Generate(gen)
		want, err := eval.QueryEager(st.Q, in)
		if err != nil {
			t.Fatalf("case %d: eval: %v", i, err)
		}
		for _, noHash := range []bool{false, true} {
			opts := StreamOptions{
				BatchSize:  batches[i%len(batches)],
				Buffer:     i % 3,
				NoHashJoin: noHash,
			}
			got, err := StreamExecute(context.Background(), st.Q, in, opts)
			if err != nil {
				t.Fatalf("case %d (noHash=%v): %v", i, noHash, err)
			}
			if !got.Equal(want) {
				t.Fatalf("case %d (noHash=%v, cfg=%+v): stream %s != eval %s", i, noHash, cfg, got, want)
			}
		}
	}
}

// TestStreamMeasureDeterministic: identical runs must produce identical
// counters — the E18 gates compare them exactly across machines.
func TestStreamMeasureDeterministic(t *testing.T) {
	st, err := workload.NewStar(workload.StarConfig{Dims: 2, FactIndexes: 1, DimIndex: true, Select: true, SelectA: 2})
	if err != nil {
		t.Fatal(err)
	}
	in := st.Generate(workload.StarGenOptions{NumFact: 500, NumDim: 40, DomA: 8, Seed: 11})
	var first Measure
	for run := 0; run < 3; run++ {
		p, err := CompileStream(st.Q, in, StreamOptions{BatchSize: 32, Buffer: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		m := p.Measure()
		if run == 0 {
			first = m
			if m.Cost() <= 0 {
				t.Fatal("zero-cost run")
			}
			continue
		}
		if m != first {
			t.Fatalf("run %d: Measure %+v != first %+v", run, m, first)
		}
	}
}

// TestExecuteMatchesEvalOnProjDept: the running example's query and its
// P2 (selection scan) and P3 (secondary-index lookup) rewrites must
// reproduce the reference evaluator's result under every option variant.
func TestExecuteMatchesEvalOnProjDept(t *testing.T) {
	pd, err := workload.NewProjDept()
	if err != nil {
		t.Fatal(err)
	}
	in := pd.Generate(workload.GenOptions{NumDepts: 8, ProjsPerDept: 4, CitiBankShare: 0.3, Seed: 9})
	out := core.Struct(
		core.SF("PN", core.Prj(core.V("p"), "PName")),
		core.SF("PB", core.Prj(core.V("p"), "Budg")),
		core.SF("DN", core.Prj(core.V("p"), "PDept")),
	)
	queries := []*core.Query{pd.Q, {
		Out:      out,
		Bindings: []core.Binding{{Var: "p", Range: core.Name("Proj")}},
		Conds:    []core.Cond{{L: core.Prj(core.V("p"), "CustName"), R: core.C("CitiBank")}},
	}, {
		Out:      out,
		Bindings: []core.Binding{{Var: "p", Range: core.LkNF(core.Name("SI"), core.C("CitiBank"))}},
	}}
	for qi, q := range queries {
		want, err := eval.Query(q, in)
		if err != nil {
			t.Fatal(err)
		}
		for vi, opts := range streamVariants() {
			got, err := StreamExecute(context.Background(), q, in, opts)
			if err != nil {
				t.Fatalf("q%d variant %d: %v\n%s", qi, vi, err, q)
			}
			if !got.Equal(want) {
				t.Errorf("q%d variant %d: result differs from eval:\n%s", qi, vi, q)
			}
		}
	}
}

// TestExecuteP4JoinIndexPlan: the paper's P4 (join-index navigation with
// failing lookups in the projection and the condition) must return the
// original query's answer.
func TestExecuteP4JoinIndexPlan(t *testing.T) {
	pd, err := workload.NewProjDept()
	if err != nil {
		t.Fatal(err)
	}
	in := pd.Generate(workload.GenOptions{NumDepts: 5, ProjsPerDept: 3, CitiBankShare: 0.4, Seed: 4})
	p4 := &core.Query{
		Out: core.Struct(
			core.SF("PN", core.Prj(core.V("j"), "PN")),
			core.SF("PB", core.Prj(core.Lk(core.Name("I"), core.Prj(core.V("j"), "PN")), "Budg")),
			core.SF("DN", core.Prj(core.Lk(core.Name("Dept"), core.Prj(core.V("j"), "DOID")), "DName")),
		),
		Bindings: []core.Binding{{Var: "j", Range: core.Name("JI")}},
		Conds: []core.Cond{
			{L: core.Prj(core.Lk(core.Name("I"), core.Prj(core.V("j"), "PN")), "CustName"), R: core.C("CitiBank")},
		},
	}
	want, err := eval.Query(pd.Q, in)
	if err != nil {
		t.Fatal(err)
	}
	for vi, opts := range streamVariants() {
		got, err := StreamExecute(context.Background(), p4, in, opts)
		if err != nil {
			t.Fatalf("variant %d: %v", vi, err)
		}
		if !got.Equal(want) {
			t.Errorf("variant %d: P4 execution differs from Q", vi)
		}
	}
}

// TestCompileRejectsBadPlans: plans with no bindings or with ill-scoped
// variables fail at compile time, before any operator runs.
func TestCompileRejectsBadPlans(t *testing.T) {
	in := instance.NewInstance()
	if _, err := CompileStream(&core.Query{Out: core.C(1)}, in, StreamOptions{}); err == nil {
		t.Error("plan with no bindings must be rejected")
	}
	bad := &core.Query{
		Out:      core.V("x"),
		Bindings: []core.Binding{{Var: "x", Range: core.Prj(core.V("y"), "F")}},
	}
	if _, err := CompileStream(bad, in, StreamOptions{}); err == nil {
		t.Error("ill-scoped plan must be rejected")
	}
}

// TestRunErrorsOnMissingName: a plan over a name the instance does not
// bind compiles (compilation never touches data) but fails at run time.
func TestRunErrorsOnMissingName(t *testing.T) {
	in := instance.NewInstance()
	q := &core.Query{
		Out:      core.C(1),
		Bindings: []core.Binding{{Var: "r", Range: core.Name("R")}},
	}
	for vi, opts := range streamVariants() {
		if _, err := StreamExecute(context.Background(), q, in, opts); err == nil {
			t.Errorf("variant %d: missing schema name must error at run time", vi)
		}
	}
}

// TestExplain: the running example renders a projection over a scan
// with the selection pushed into it.
func TestExplain(t *testing.T) {
	pd, err := workload.NewProjDept()
	if err != nil {
		t.Fatal(err)
	}
	in := pd.Generate(workload.GenOptions{Seed: 1})
	p, err := CompileStream(pd.Q, in, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ex := p.Explain()
	for _, frag := range []string{"Project", "Scan", "pushdown="} {
		if !strings.Contains(ex, frag) {
			t.Errorf("Explain missing %q:\n%s", frag, ex)
		}
	}
}

// TestExplainShowsLookupKinds: Explain distinguishes the non-failing
// lookup form from the failing one.
func TestExplainShowsLookupKinds(t *testing.T) {
	pd, err := workload.NewProjDept()
	if err != nil {
		t.Fatal(err)
	}
	in := pd.Generate(workload.GenOptions{Seed: 1})
	p3 := &core.Query{
		Out:      core.Prj(core.V("p"), "PName"),
		Bindings: []core.Binding{{Var: "p", Range: core.LkNF(core.Name("SI"), core.C("CitiBank"))}},
	}
	p, err := CompileStream(p3, in, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.Explain(), "non-failing") {
		t.Errorf("Explain should mark non-failing lookups:\n%s", p.Explain())
	}
}

// TestConstantFalseCondition: a false variable-free condition empties the
// result without running the operator tree.
func TestConstantFalseCondition(t *testing.T) {
	pd, err := workload.NewProjDept()
	if err != nil {
		t.Fatal(err)
	}
	in := pd.Generate(workload.GenOptions{Seed: 1})
	q := &core.Query{
		Out:      core.Prj(core.V("p"), "PName"),
		Bindings: []core.Binding{{Var: "p", Range: core.Name("Proj")}},
		Conds:    []core.Cond{{L: core.C(1), R: core.C(2)}},
	}
	for vi, opts := range streamVariants() {
		p, err := CompileStream(q, in, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != 0 {
			t.Errorf("variant %d: false constant condition must produce empty result", vi)
		}
		if m := p.Measure(); m.Evals != 1 || m.Rows != 0 {
			t.Errorf("variant %d: Measure = %+v, want only the constant check", vi, m)
		}
	}
}

// TestEngineAgreesWithEvalProperty compares the engine and eval on
// randomized index-only workloads.
func TestEngineAgreesWithEvalProperty(t *testing.T) {
	sc, err := workload.NewIndexOnly(5, 9)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 5; seed++ {
		in := sc.Generate(100, 10, 10, seed)
		want, err := eval.Query(sc.Q, in)
		if err != nil {
			t.Fatal(err)
		}
		for vi, opts := range streamVariants() {
			got, err := StreamExecute(context.Background(), sc.Q, in, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Errorf("seed %d variant %d: engine differs from eval", seed, vi)
			}
		}
	}
}
