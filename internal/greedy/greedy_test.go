package greedy

import (
	"reflect"
	"testing"

	"cnb/internal/core"
	"cnb/internal/eval"
	"cnb/internal/workload"
)

// TestOrderIsScopeValidPermutation: on every star/snowflake workload
// shape the order is a permutation of the binding indices and every
// range's variables are bound before the range runs.
func TestOrderIsScopeValidPermutation(t *testing.T) {
	for _, cfg := range []workload.StarConfig{
		{Dims: 2, Views: 1, FactIndexes: 1, DimIndex: true, Select: true, SelectA: 3, FKConstraints: true},
		{Dims: 3, Views: 2, FactIndexes: 1, DimKeyIndexes: 1, DimIndex: true, Select: true, SelectA: 5, FKConstraints: true},
		{Dims: 2, Snowflake: true, Views: 1, FactIndexes: 1, DimIndex: true, Select: true, SelectA: 3, FKConstraints: true},
	} {
		st, err := workload.NewStar(cfg)
		if err != nil {
			t.Fatal(err)
		}
		q := st.Q
		ord := Order(q)
		if len(ord) != len(q.Bindings) {
			t.Fatalf("order length %d, want %d", len(ord), len(q.Bindings))
		}
		seen := make(map[int]bool)
		bound := make(map[string]bool)
		for _, i := range ord {
			if i < 0 || i >= len(q.Bindings) || seen[i] {
				t.Fatalf("not a permutation: %v", ord)
			}
			seen[i] = true
			for v := range q.Bindings[i].Range.Vars() {
				if !bound[v] {
					t.Fatalf("binding %d (%s) scheduled before its range var %q", i, q.Bindings[i].Var, v)
				}
			}
			bound[q.Bindings[i].Var] = true
		}
		if got := Order(q); !reflect.DeepEqual(got, ord) {
			t.Fatalf("order not deterministic: %v then %v", ord, got)
		}
	}
}

// TestOrderConstantSelectionFirst: with two disconnected scans where only
// the second carries a constant equality, the greedy order starts with
// the selective one.
func TestOrderConstantSelectionFirst(t *testing.T) {
	q := &core.Query{
		Out: core.V("y"),
		Bindings: []core.Binding{
			{Var: "x", Range: core.Name("R")},
			{Var: "y", Range: core.Name("S")},
		},
		Conds: []core.Cond{
			{L: core.Prj(core.V("y"), "A"), R: core.C(int64(7))},
			{L: core.Prj(core.V("x"), "K"), R: core.Prj(core.V("y"), "K")},
		},
	}
	ord := Order(q)
	if len(ord) != 2 || ord[0] != 1 {
		t.Fatalf("order = %v, want the constant-selected binding (1) first", ord)
	}
}

// TestOrderDelaysCrossProduct: a binding with no conditions at all must
// come after the connected join pair, even though it is listed first.
func TestOrderDelaysCrossProduct(t *testing.T) {
	q := &core.Query{
		Out: core.V("z"),
		Bindings: []core.Binding{
			{Var: "z", Range: core.Name("Lonely")},
			{Var: "x", Range: core.Name("R")},
			{Var: "y", Range: core.Name("S")},
		},
		Conds: []core.Cond{
			{L: core.Prj(core.V("x"), "A"), R: core.C(int64(1))},
			{L: core.Prj(core.V("x"), "K"), R: core.Prj(core.V("y"), "K")},
		},
	}
	ord := Order(q)
	if len(ord) != 3 || ord[2] != 0 {
		t.Fatalf("order = %v, want the cross-product binding (0) last", ord)
	}
}

// TestOrderDependentAccessEager: a dependent range (lookup keyed on a
// bound variable) outranks a fresh connected scan once its key is bound.
func TestOrderDependentAccessEager(t *testing.T) {
	q := &core.Query{
		Out: core.V("d"),
		Bindings: []core.Binding{
			{Var: "x", Range: core.Name("R")},
			{Var: "y", Range: core.Name("S")},
			{Var: "d", Range: core.Lk(core.Name("Idx"), core.Prj(core.V("x"), "K"))},
		},
		Conds: []core.Cond{
			{L: core.Prj(core.V("x"), "A"), R: core.C(int64(1))},
			{L: core.Prj(core.V("x"), "B"), R: core.Prj(core.V("y"), "B")},
		},
	}
	ord := Order(q)
	if len(ord) != 3 || ord[0] != 0 || ord[1] != 2 {
		t.Fatalf("order = %v, want [0 2 1] (dependent lookup before fresh scan)", ord)
	}
}

// TestOrderCyclicScopingNil: mutually dependent ranges admit no
// scope-valid order; Order must report that instead of looping.
func TestOrderCyclicScopingNil(t *testing.T) {
	q := &core.Query{
		Out: core.V("x"),
		Bindings: []core.Binding{
			{Var: "x", Range: core.Lk(core.Name("M"), core.V("y"))},
			{Var: "y", Range: core.Lk(core.Name("M"), core.V("x"))},
		},
	}
	if ord := Order(q); ord != nil {
		t.Fatalf("order = %v, want nil for cyclic scoping", ord)
	}
}

// TestPlanDoesNotMutateInput: Plan must clone; the caller's query is part
// of cache keys elsewhere and must stay bit-identical.
func TestPlanDoesNotMutateInput(t *testing.T) {
	st, err := workload.NewStar(workload.StarConfig{
		Dims: 2, Views: 1, FactIndexes: 1, DimIndex: true,
		Select: true, SelectA: 3, FKConstraints: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := st.Q.String()
	_ = Plan(st.Q)
	if after := st.Q.String(); after != before {
		t.Fatalf("Plan mutated its input:\nbefore %s\nafter  %s", before, after)
	}
}

// TestPlanRowIdentical: the greedy plan, evaluated by the reference
// evaluator, returns exactly the rows of the original query on seeded star and snowflake
// instances — the correctness contract the serving tier relies on.
func TestPlanRowIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  workload.StarConfig
	}{
		{"star", workload.StarConfig{Dims: 2, Views: 1, FactIndexes: 1, DimIndex: true, Select: true, SelectA: 3, FKConstraints: true}},
		{"snowflake", workload.StarConfig{Dims: 2, Snowflake: true, Views: 1, FactIndexes: 1, DimIndex: true, Select: true, SelectA: 3, FKConstraints: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := workload.NewStar(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			in := st.Generate(workload.StarGenOptions{
				NumFact: 2000, NumDim: 300, NumSub: 150, DomA: 40, Seed: 2025,
			})
			plan := Plan(st.Q)
			if err := plan.Validate(); err != nil {
				t.Fatalf("greedy plan invalid: %v\n%s", err, plan)
			}
			got, err := eval.QueryEager(plan, in)
			if err != nil {
				t.Fatalf("greedy plan: %v", err)
			}
			want, err := eval.QueryEager(st.Q, in)
			if err != nil {
				t.Fatalf("original query: %v", err)
			}
			if !got.Equal(want) {
				t.Fatalf("greedy plan result differs: %d rows vs %d", got.Len(), want.Len())
			}
		})
	}
}

// BenchmarkGreedyPlan pins the headline claim: planning a star shape is
// a microsecond-scale operation.
func BenchmarkGreedyPlan(b *testing.B) {
	st, err := workload.NewStar(workload.StarConfig{
		Dims: 3, Views: 2, FactIndexes: 1, DimKeyIndexes: 1, DimIndex: true,
		Select: true, SelectA: 5, FKConstraints: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Plan(st.Q)
	}
}
