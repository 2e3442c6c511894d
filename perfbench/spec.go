package main

import (
	"bytes"
	"encoding/json"
)

// workloadSpec describes one workload for the spec files.
type workloadSpec struct {
	Name    string `json:"name"`
	Why     string `json:"why"`
	Loop    string `json:"loop"`
	Clients int    `json:"clients"`
	Seed    string `json:"seed"`
}

var workloadSpecs = []workloadSpec{
	{
		Name:    "warm-plan",
		Why:     "closed loop, 2 clients, --seed sets order and renames: Service.Optimize on the 7 serving shapes, half renamed; every request hits the plan cache, so canon, chase, rewrite and rank work",
		Loop:    "closed",
		Clients: 2,
		Seed:    "--seed: round order and renames",
	},
	{
		Name:    "cold-plan",
		Why:     "closed loop, 1 client, --seed sets order and constants: Service.Optimize on star/snowflake/ProjDept shapes never seen before; the backchase runs and each plan-cache access misses and inserts",
		Loop:    "closed",
		Clients: 1,
		Seed:    "--seed: round order and selection constants",
	},
	{
		Name:    "query-exec",
		Why:     "closed loop, 2 clients, --seed sets instance, constants, order, renames: Service.Query plus cnbd's JSON encoding on 10^6 zipf star rows; exercises engine (index navigation, hash joins)",
		Loop:    "closed",
		Clients: 2,
		Seed:    "--seed: instance, selection constants, round order and renames",
	},
}

// metricSpec describes one metric. Bound is set for end-to-end metrics
// only; Moves names, for a per-layer metric, the end-to-end metrics and
// workloads a change to that layer should move.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Moves  string  `json:"moves,omitempty"`
	Means  string  `json:"means"`
}

var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Means: "median of 3 set-ups: generate inputs, install instance and statistics, warm the caches"},
	{Name: "throughput_rps", Unit: "1/s", Better: "higher", Bound: 0.25, Means: "completed requests per second of the untraced run"},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Means: "median request latency"},
	{Name: "tail_ms", Unit: "ms", Better: "lower", Bound: 0.25, Means: "latency at the highest percentile with at least 10 samples beyond it (the maximum below 11 samples)"},
	{Name: "plan_cost", Unit: "cost", Better: "lower", Bound: 0.05, Means: "mean estimated cost of the delivered plans"},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.25, Means: "heap in use after a GC at the end of the untraced run"},
}

var perLayer = []metricSpec{
	{Name: "core.canon_us", Unit: "us", Better: "lower", Moves: "warm-plan p50_ms", Means: "Query.CanonicalSignature of the request query"},
	{Name: "chase.ms", Unit: "ms", Better: "lower", Moves: "warm-plan p50_ms; cold-plan p50_ms", Means: "chase.NewDepIndex plus chase.ChaseIndexed"},
	{Name: "chase.allocs", Unit: "count", Better: "lower", Moves: "warm-plan p50_ms", Means: "heap objects allocated in the chase spans (runtime/metrics; the runtime counts small objects per memory span, so small counts are approximate)"},
	{Name: "chase.steps", Unit: "count", Better: "lower", Moves: "warm-plan p50_ms; cold-plan p50_ms", Means: "chase steps, the backchase's equivalence chases included"},
	{Name: "chase.hom_tests", Unit: "count", Better: "lower", Moves: "warm-plan p50_ms; cold-plan p50_ms", Means: "homomorphism membership tests, the backchase's chases included"},
	{Name: "backchase.ms", Unit: "ms", Better: "lower", Moves: "cold-plan p50_ms, tail_ms, throughput_rps", Means: "backchase.EnumerateContext against the benchmark's own PlanCache"},
	{Name: "backchase.allocs", Unit: "count", Better: "lower", Moves: "cold-plan p50_ms", Means: "heap objects allocated in the backchase span"},
	{Name: "backchase.states", Unit: "count", Better: "lower", Moves: "cold-plan p50_ms, throughput_rps", Means: "backchase states explored (or served from cache)"},
	{Name: "backchase.cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "warm-plan p50_ms", Means: "plan-cache hits over lookups of the benchmark's PlanCache"},
	{Name: "rewrite.ms", Unit: "ms", Better: "lower", Moves: "warm-plan p50_ms, throughput_rps", Means: "candidate pool, planrewrite.SimplifyLookups and signature dedup"},
	{Name: "rewrite.allocs", Unit: "count", Better: "lower", Moves: "warm-plan p50_ms", Means: "heap objects allocated in the rewrite span"},
	{Name: "rewrite.candidates_in", Unit: "count", Better: "lower", Moves: "warm-plan p50_ms", Means: "plans entering lookup simplification"},
	{Name: "rewrite.candidates_out", Unit: "count", Better: "lower", Moves: "warm-plan p50_ms", Means: "distinct simplified plans handed to rank"},
	{Name: "rank.ms", Unit: "ms", Better: "lower", Moves: "warm-plan p50_ms, throughput_rps; query-exec p50_ms", Means: "cost.Stats.Rank"},
	{Name: "rank.allocs", Unit: "count", Better: "lower", Moves: "warm-plan p50_ms", Means: "heap objects allocated in the rank span"},
	{Name: "rank.candidates", Unit: "count", Better: "lower", Moves: "warm-plan p50_ms", Means: "plans ranked"},
	{Name: "service.overhead_ms", Unit: "ms", Better: "lower", Moves: "warm-plan tail_ms", Means: "Service call span minus its layer spans"},
	{Name: "service.coalesced_ratio", Unit: "ratio", Better: "higher", Moves: "warm-plan tail_ms", Means: "coalesced requests over requests, untraced run"},
	{Name: "service.flights", Unit: "count", Better: "lower", Moves: "warm-plan tail_ms", Means: "optimizer flights per request, untraced run"},
	{Name: "service.backchase_runs", Unit: "count", Better: "lower", Moves: "warm-plan tail_ms; cold-plan p50_ms", Means: "backchase enumerations per request, untraced run"},
	{Name: "engine.compile_ms", Unit: "ms", Better: "lower", Moves: "query-exec p50_ms", Means: "engine.CompileStream"},
	{Name: "engine.run_ms", Unit: "ms", Better: "lower", Moves: "query-exec p50_ms, tail_ms, throughput_rps", Means: "StreamPlan.Run plus Measure"},
	{Name: "engine.allocs", Unit: "count", Better: "lower", Moves: "query-exec p50_ms, throughput_rps", Means: "heap objects allocated in the engine spans"},
	{Name: "engine.evals", Unit: "count", Better: "lower", Moves: "query-exec p50_ms", Means: "range evaluations (Measure.Evals)"},
	{Name: "engine.rows", Unit: "count", Better: "lower", Moves: "query-exec p50_ms", Means: "rows moved through operators (Measure.Rows)"},
	{Name: "engine.out_rows", Unit: "count", Better: "lower", Moves: "query-exec p50_ms", Means: "rows projected before dedup (Measure.OutRows)"},
	{Name: "engine.skipped", Unit: "count", Better: "lower", Moves: "query-exec p50_ms", Means: "candidates passed over for failing lookups"},
	{Name: "encode.ms", Unit: "ms", Better: "lower", Moves: "query-exec p50_ms", Means: "service.ValueJSON plus encoding/json of the response"},
	{Name: "encode.bytes", Unit: "bytes", Better: "lower", Moves: "query-exec p50_ms", Means: "size of the encoded response"},
	{Name: "setup.generate_s", Unit: "s", Better: "lower", Moves: "setup_s", Means: "median input generation time of the set-ups"},
	{Name: "setup.install_s", Unit: "s", Better: "lower", Moves: "setup_s", Means: "median service, instance and statistics install time"},
	{Name: "setup.warm_s", Unit: "s", Better: "lower", Moves: "setup_s", Means: "median cache warm-up time"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower", Means: "traced request p50 over untraced p50_ms"},
}

// runSeconds is how long one run measures.
const runSeconds = 15

// benchmarkFile renders BENCHMARK.json from the tables above.
func benchmarkFile() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	f := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadSpecs {
		f.Workloads = append(f.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	return indentJSON(f)
}

// specFile renders perfbench/spec.json: everything BENCHMARK.json
// cannot hold — loop type, client count and seed use per workload, what
// each metric means, and which end-to-end metric each layer metric
// should move.
func specFile() []byte {
	return indentJSON(struct {
		ServiceOptions string         `json:"service_options"`
		Workloads      []workloadSpec `json:"workloads"`
		EndToEnd       []metricSpec   `json:"end_to_end"`
		PerLayer       []metricSpec   `json:"per_layer"`
	}{
		ServiceOptions: "service.Options as cmd/cnbd builds them at default flags (the zero value: all cores, exhaustive search, synchronous); query-exec also installs statistics, as POST /stats would",
		Workloads:      workloadSpecs,
		EndToEnd:       endToEnd,
		PerLayer:       perLayer,
	})
}

func indentJSON(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		panic(err) // the spec tables are plain structs that always encode
	}
	return buf.Bytes()
}
