package engine

import (
	"context"
	"errors"
	"testing"

	"cnb/internal/core"
	"cnb/internal/eval"
	"cnb/internal/instance"
)

// chainInstance builds a two-level dictionary chain: IDX maps a constant
// to a set of rows, HOP maps row keys onward — with deliberate holes so a
// non-failing lookup mid-chain can come up empty.
func chainInstance() *instance.Instance {
	in := instance.NewInstance()
	rows := instance.NewSet(
		instance.StructOf("K", instance.Int(1), "A", instance.Int(10)),
		instance.StructOf("K", instance.Int(2), "A", instance.Int(20)),
		instance.StructOf("K", instance.Int(3), "A", instance.Int(30)),
	)
	idx := instance.NewDict()
	idx.Put(instance.Str("hit"), rows)
	idx.Put(instance.Str("empty"), instance.NewSet())
	in.Bind("IDX", idx)

	hop := instance.NewDict()
	// Key 2 is missing, key 3 maps to an empty bucket.
	hop.Put(instance.Int(1), instance.NewSet(
		instance.StructOf("B", instance.Int(100)),
		instance.StructOf("B", instance.Int(101)),
	))
	hop.Put(instance.Int(3), instance.NewSet())
	in.Bind("HOP", hop)
	return in
}

// TestEmptyLookupMidChain: a non-failing lookup in the middle of a chain
// that returns no rows (missing key or empty bucket) must simply produce
// nothing for that outer row and let the scan continue with the next one.
func TestEmptyLookupMidChain(t *testing.T) {
	in := chainInstance()
	q := &core.Query{
		Out: core.Prj(core.V("h"), "B"),
		Bindings: []core.Binding{
			{Var: "r", Range: core.LkNF(core.Name("IDX"), core.C("hit"))},
			{Var: "h", Range: core.LkNF(core.Name("HOP"), core.Prj(core.V("r"), "K"))},
		},
	}
	for vi, opts := range streamVariants() {
		got, err := StreamExecute(context.Background(), q, in, opts)
		if err != nil {
			t.Fatalf("variant %d: %v", vi, err)
		}
		// Only r.K=1 reaches a non-empty HOP bucket: rows 100 and 101.
		if got.Len() != 2 {
			t.Fatalf("variant %d: got %d rows, want 2: %s", vi, got.Len(), got)
		}
		for _, want := range []int64{100, 101} {
			if !got.Contains(instance.Int(want)) {
				t.Errorf("variant %d: missing output %d in %s", vi, want, got)
			}
		}
	}
}

// TestEmptyLookupAtChainHead: a non-failing lookup over an empty bucket
// or an absent key as the outermost binding terminates immediately with
// an empty result.
func TestEmptyLookupAtChainHead(t *testing.T) {
	in := chainInstance()
	for _, key := range []string{"empty", "absent"} {
		q := &core.Query{
			Out: core.Prj(core.V("r"), "A"),
			Bindings: []core.Binding{
				{Var: "r", Range: core.LkNF(core.Name("IDX"), core.C(key))},
			},
		}
		for vi, opts := range streamVariants() {
			got, err := StreamExecute(context.Background(), q, in, opts)
			if err != nil {
				t.Fatalf("key %q variant %d: %v", key, vi, err)
			}
			if got.Len() != 0 {
				t.Errorf("key %q variant %d: got %d rows, want 0", key, vi, got.Len())
			}
		}
	}
}

// TestFailingLookupMidChainErrors: the failing form M[k] must surface
// *eval.ErrLookupFailed when an outer row's key is absent, rather than
// skipping the row (the guarded dom-loop is the only sound way to iterate
// it) — whether the lookup is a binding range mid-chain or sits in the
// output projection. Calibration's and Query's skip rule depend on the
// typed error.
func TestFailingLookupMidChainErrors(t *testing.T) {
	in := chainInstance()
	queries := []*core.Query{
		{ // failing lookup as a mid-chain binding range
			Out: core.Prj(core.V("h"), "B"),
			Bindings: []core.Binding{
				{Var: "r", Range: core.LkNF(core.Name("IDX"), core.C("hit"))},
				{Var: "h", Range: core.Lk(core.Name("HOP"), core.Prj(core.V("r"), "K"))},
			},
		},
		{ // failing lookup in the projection
			Out: core.Lk(core.Name("HOP"), core.Prj(core.V("r"), "K")),
			Bindings: []core.Binding{
				{Var: "r", Range: core.LkNF(core.Name("IDX"), core.C("hit"))},
			},
		},
	}
	for qi, q := range queries {
		if _, err := eval.QueryEager(q, in); err == nil {
			t.Fatalf("q%d: eval should fail on the missing HOP key", qi)
		}
		for vi, opts := range streamVariants() {
			_, err := StreamExecute(context.Background(), q, in, opts)
			var lf *eval.ErrLookupFailed
			if !errors.As(err, &lf) {
				t.Fatalf("q%d variant %d: want ErrLookupFailed, got %v", qi, vi, err)
			}
		}
	}
}

// TestRunRepeatsAfterReOpen: Run re-Opens the operator tree, so a second
// Run of the same StreamPlan yields an equal (deduplicated) result and a
// fresh Measure — no state leaks across executions, buffered or not.
func TestRunRepeatsAfterReOpen(t *testing.T) {
	in := chainInstance()
	// A self-join that produces duplicate output rows to exercise set
	// deduplication.
	q := &core.Query{
		Out: core.Prj(core.V("a"), "A"),
		Bindings: []core.Binding{
			{Var: "a", Range: core.LkNF(core.Name("IDX"), core.C("hit"))},
			{Var: "b", Range: core.LkNF(core.Name("IDX"), core.C("hit"))},
		},
	}
	for vi, opts := range streamVariants() {
		p, err := CompileStream(q, in, opts)
		if err != nil {
			t.Fatal(err)
		}
		first, err := p.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		m1 := p.Measure()
		second, err := p.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		m2 := p.Measure()
		if !first.Equal(second) {
			t.Errorf("variant %d: re-Open changed the result: %s vs %s", vi, first, second)
		}
		// 3x3 join rows dedup to 3 distinct outputs.
		if first.Len() != 3 {
			t.Errorf("variant %d: got %d distinct rows, want 3", vi, first.Len())
		}
		if m1 != m2 {
			t.Errorf("variant %d: re-Open did not reset counters: %+v vs %+v", vi, m1, m2)
		}
		if m1.OutRows != 9 {
			t.Errorf("variant %d: OutRows = %d, want 9 pre-dedup join rows", vi, m1.OutRows)
		}
	}
}

// TestMeasureCountsProbesAndRows pins the counter semantics the E14
// calibration relies on: one Eval per range evaluation (a probe for
// lookups), one Row per emitted binding row, at every batch size.
func TestMeasureCountsProbesAndRows(t *testing.T) {
	in := chainInstance()
	q := &core.Query{
		Out: core.Prj(core.V("h"), "B"),
		Bindings: []core.Binding{
			{Var: "r", Range: core.LkNF(core.Name("IDX"), core.C("hit"))},
			{Var: "h", Range: core.LkNF(core.Name("HOP"), core.Prj(core.V("r"), "K"))},
		},
	}
	for vi, opts := range streamVariants() {
		p, err := CompileStream(q, in, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		m := p.Measure()
		// IDX probed once (3 rows emitted), HOP probed once per outer row
		// (3 probes, 2 rows emitted).
		if m.Evals != 4 {
			t.Errorf("variant %d: Evals = %d, want 4 (1 IDX probe + 3 HOP probes)", vi, m.Evals)
		}
		if m.Rows != 5 {
			t.Errorf("variant %d: Rows = %d, want 5 (3 IDX rows + 2 HOP rows)", vi, m.Rows)
		}
		if m.OutRows != 2 {
			t.Errorf("variant %d: OutRows = %d, want 2", vi, m.OutRows)
		}
		if m.Cost() != float64(4+5+2) {
			t.Errorf("variant %d: Cost = %v, want 11", vi, m.Cost())
		}
	}
}

// TestDescribeGolden pins the exact EXPLAIN rendering of each operator
// kind: plans are first-class CI-tested artifacts, so their printed form
// must not drift silently.
func TestDescribeGolden(t *testing.T) {
	in := chainInstance()
	cases := []struct {
		name string
		q    *core.Query
		opts StreamOptions
		want string
	}{
		{
			name: "scan with pushdown",
			q: &core.Query{
				Out: core.Prj(core.V("r"), "A"),
				Bindings: []core.Binding{
					{Var: "r", Range: core.Name("R")},
				},
				Conds: []core.Cond{{L: core.Prj(core.V("r"), "A"), R: core.C(int64(10))}},
			},
			want: "Project r.A\n" +
				"  BatchScan R as r pushdown=[r.A = 10]\n",
		},
		{
			name: "lookup chain",
			q: &core.Query{
				Out: core.Prj(core.V("h"), "B"),
				Bindings: []core.Binding{
					{Var: "r", Range: core.LkNF(core.Name("IDX"), core.C("hit"))},
					{Var: "h", Range: core.Lk(core.Name("HOP"), core.Prj(core.V("r"), "K"))},
				},
			},
			want: "Project h.B\n" +
				"  BatchLookupScan HOP[r.K] as h\n" +
				"    BatchLookupScan(non-failing) IDX{\"hit\"} as r\n",
		},
		{
			name: "dom and path scans",
			q: &core.Query{
				Out: core.Prj(core.V("x"), "B"),
				Bindings: []core.Binding{
					{Var: "k", Range: core.Dom(core.Name("HOP"))},
					{Var: "x", Range: core.Lk(core.Name("HOP"), core.V("k"))},
					{Var: "p", Range: core.Prj(core.V("x"), "Subs")},
				},
			},
			want: "Project x.B\n" +
				"  BatchPathScan x.Subs as p\n" +
				"    BatchLookupScan HOP[k] as x\n" +
				"      BatchDomScan dom(HOP) as k\n",
		},
		{
			name: "hash join, residual filter and buffer",
			q: &core.Query{
				Out: core.Prj(core.V("s"), "B"),
				Bindings: []core.Binding{
					{Var: "r", Range: core.Name("R")},
					{Var: "s", Range: core.Name("S")},
				},
				Conds: []core.Cond{
					{L: core.Prj(core.V("s"), "K"), R: core.Prj(core.V("r"), "K")},
					{
						L: core.Struct(core.SF("S", core.Prj(core.V("s"), "B")), core.SF("R", core.Prj(core.V("r"), "A"))),
						R: core.Struct(core.SF("S", core.C(int64(1))), core.SF("R", core.C(int64(1)))),
					},
				},
			},
			opts: StreamOptions{Buffer: 2},
			want: "Project s.B\n" +
				"  Buffer depth=2\n" +
				"    BatchFilter [struct(S: s.B, R: r.A) = struct(S: 1, R: 1)]\n" +
				"      HashJoin S as s build=[s.K] probe=[r.K]\n" +
				"        BatchScan R as r\n",
		},
	}
	for _, tc := range cases {
		p, err := CompileStream(tc.q, in, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := p.Explain(); got != tc.want {
			t.Errorf("%s: Explain drifted\ngot:\n%s\nwant:\n%s", tc.name, got, tc.want)
		}
	}
}
