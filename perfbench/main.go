// Command perfbench is the repository benchmark: it replays seeded
// workloads against an in-process internal/service.Service built with
// the service.Options cmd/cnbd builds at its default flags, checks every
// response, and prints each metric by name with its unit. The last line
// of its output is one JSON object with the keys correct, attempted,
// failed and metrics.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload warm-plan|cold-plan|query-exec \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end ones of one untraced
// closed-loop run. With --trace 1 the untraced run is followed by a
// traced run (one client, one round of the schedule) that issues each
// request through the public Service call and then again through the
// layer calls that call makes, each in a span; the metrics are then the
// per-layer ones. BENCHMARK.json at the repository root and spec.json
// beside this file describe the workloads and metrics; both are
// generated from spec.go (go test -run TestSpecFiles -update).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	setups   int    // set-ups per run; setup_s is their median
	factRows int    // query-exec instance size
	spans    string // file the traced run writes its spans to
}

// result is the run's final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	cfg := config{setups: 3, factRows: queryFactRows}
	var (
		seconds float64
		trace   int
	)
	flag.StringVar(&cfg.workload, "workload", "", "warm-plan, cold-plan or query-exec")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&seconds, "seconds", runSeconds, "measuring time of the untraced run")
	flag.IntVar(&trace, "trace", 0, "1 = add the traced run and report per-layer metrics")
	flag.Parse()
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	cfg.spans = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	rep, err := run(context.Background(), cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res := rep.result
	metrics, specs := rep.e2e, endToEnd
	if cfg.trace {
		metrics, specs = rep.layer, perLayer
	}
	for _, m := range specs {
		res.Metrics[m.Name] = metricValue{metrics[m.Name], m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// report is the outcome of one run: the result line without its
// metrics, the end-to-end metrics, and with tracing the per-layer ones.
type report struct {
	result *result
	e2e    map[string]float64
	layer  map[string]float64
}

// run executes one benchmark run and writes its human-readable report
// to out.
func run(ctx context.Context, cfg config, out io.Writer) (*report, error) {
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	spec := workloadByName(cfg.workload)

	var setups []setupTimes
	for s := 0; s < cfg.setups; s++ {
		st, err := w.setup(ctx)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, st)
	}
	tRef := time.Now()
	if err := w.prepareChecks(ctx); err != nil {
		return nil, fmt.Errorf("check references: %w", err)
	}
	refSecs := time.Since(tRef).Seconds()

	svc := w.service()
	before := svc.Counters()
	type done struct {
		req request
		out outcome
	}
	loop := runClosedLoop(spec.Clients, w.kinds(), cfg.seconds, w.request, func(r request) (done, error) {
		o, err := w.call(ctx, r)
		if err == nil {
			err = w.encode(&o)
		}
		return done{r, o}, err
	}, func(d done) done {
		// The response rows alias the whole result slice; keep only the
		// returned prefix the check reads.
		d.out.rows = slices.Clone(d.out.rows)
		return d
	})
	after := svc.Counters()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	tCheck := time.Now()
	res := &result{Correct: true, Attempted: len(loop.samples), Metrics: map[string]metricValue{}}
	var costSum float64
	for _, s := range loop.samples {
		if s.err != nil {
			res.Failed++
			res.Correct = false
			fmt.Fprintf(out, "request %d failed: %v\n", s.val.req.index, s.err)
			continue
		}
		costSum += s.val.out.cost
		if err := w.check(s.val.req, s.val.out); err != nil {
			res.Correct = false
			fmt.Fprintf(out, "check failed on request %d: %v\n", s.val.req.index, err)
		}
	}
	lat := summarize(loop.samples)
	ok := len(loop.samples) - res.Failed
	checkSecs := time.Since(tCheck).Seconds()

	e2e := map[string]float64{
		"setup_s":        median(mapSetups(setups, setupTimes.total)),
		"throughput_rps": float64(ok) / loop.wall.Seconds(),
		"p50_ms":         ms(lat.p50),
		"tail_ms":        ms(lat.tail),
		"plan_cost":      costSum / float64(max(ok, 1)),
		"live_heap_mb":   float64(mem.HeapAlloc) / (1 << 20),
	}
	fmt.Fprintf(out, "workload %s: seed %d, %s loop, %d clients, %d requests in %d rounds, %.2fs, %d set-ups\n",
		cfg.workload, cfg.seed, spec.Loop, spec.Clients, len(loop.samples), len(loop.samples)/w.kinds(), loop.wall.Seconds(), cfg.setups)
	fmt.Fprintf(out, "  error_rate %g (%d of %d failed)\n", float64(res.Failed)/float64(max(len(loop.samples), 1)), res.Failed, len(loop.samples))
	for _, m := range endToEnd {
		note := ""
		if m.Name == "tail_ms" {
			note = fmt.Sprintf("  (p%.1f of %d samples, %d beyond)", lat.tailPct, lat.n, lat.beyond)
		}
		fmt.Fprintf(out, "  %-16s %12.4f %s%s\n", m.Name, e2e[m.Name], m.Unit, note)
	}
	var setupSecs float64
	for _, s := range setups {
		setupSecs += s.total().Seconds()
	}
	fmt.Fprintf(out, "  phases: set-ups %.1fs, check references %.1fs, run %.1fs, checks %.1fs\n",
		setupSecs, refSecs, loop.wall.Seconds(), checkSecs)
	rep := &report{result: res, e2e: e2e}
	if !cfg.trace {
		return rep, nil
	}

	layer, tracedP50, err := tracedRun(ctx, w, len(loop.samples), cfg.spans, out)
	if err != nil {
		res.Correct = false
		fmt.Fprintf(out, "traced run failed: %v\n", err)
		return rep, nil
	}
	reqs := float64(max(after.Requests-before.Requests, 1))
	layer["service.coalesced_ratio"] = float64(after.Coalesced-before.Coalesced) / reqs
	layer["service.flights"] = float64(after.Flights-before.Flights) / reqs
	layer["service.backchase_runs"] = float64(after.BackchaseRuns-before.BackchaseRuns) / reqs
	layer["setup.generate_s"] = median(mapSetups(setups, func(s setupTimes) time.Duration { return s.generate }))
	layer["setup.install_s"] = median(mapSetups(setups, func(s setupTimes) time.Duration { return s.install }))
	layer["setup.warm_s"] = median(mapSetups(setups, func(s setupTimes) time.Duration { return s.warm }))
	layer["trace.overhead_ratio"] = tracedP50 / e2e["p50_ms"]
	for _, m := range perLayer {
		v, ok := layer[m.Name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s not computed", m.Name)
		}
		fmt.Fprintf(out, "  %-26s %14.4f %s\n", m.Name, v, m.Unit)
	}
	rep.layer = layer
	return rep, nil
}

func mapSetups(setups []setupTimes, f func(setupTimes) time.Duration) []float64 {
	out := make([]float64, len(setups))
	for i, s := range setups {
		out[i] = f(s).Seconds()
	}
	return out
}

func workloadByName(name string) workloadSpec {
	for _, w := range workloadSpecs {
		if w.Name == name {
			return w
		}
	}
	return workloadSpec{}
}

// tracedRun issues one round of requests, continuing the schedule after
// the untraced run, with one client, and writes its spans to spansPath
// as JSON lines when it ends. Each request goes through the
// public Service call (and cnbd's encoding), then again through the
// layer calls the call makes; the replay must deliver the same plan,
// cost and candidate count. It returns the per-layer metrics and the
// traced requests' p50 in milliseconds.
func tracedRun(ctx context.Context, w benchWorkload, first int, spansPath string, out io.Writer) (map[string]float64, float64, error) {
	rp := newReplayer()
	// Warm the replay's own plan cache with the requests the service's
	// cache was warmed with, so both serve the same hits.
	scratch := newTracer()
	for _, r := range w.warmRequests() {
		if _, _, err := w.replay(ctx, scratch, rp, r); err != nil {
			return nil, 0, fmt.Errorf("warm replay: %w", err)
		}
	}

	t := newTracer()
	var (
		traces []*requestTrace
		wall   []sample[struct{}]
	)
	for i := first; i < first+w.kinds(); i++ {
		r := w.request(i)
		t.req = i
		var (
			so, ro     outcome
			rc         replayCounts
			serr, rerr error
		)
		t.run(spanService, func() { so, serr = w.call(ctx, r) })
		if serr != nil {
			return nil, 0, fmt.Errorf("request %d: %w", i, serr)
		}
		t.run(spanEncode, func() { serr = w.encode(&so) })
		if serr != nil {
			return nil, 0, serr
		}
		steps0, hom0 := rp.metrics.ChaseSteps.Load(), rp.metrics.HomTests.Load()
		cache0 := rp.cache.Counters()
		t.run(spanReplay, func() { ro, rc, rerr = w.replay(ctx, t, rp, r) })
		if rerr != nil {
			return nil, 0, fmt.Errorf("replay %d: %w", i, rerr)
		}
		if so.plan != ro.plan || so.cost != ro.cost || so.candidates != ro.candidates || so.resultRows != ro.resultRows {
			return nil, 0, fmt.Errorf("request %d: replay delivered %q cost %v from %d candidates (%d rows), service %q cost %v from %d (%d rows)",
				i, ro.plan, ro.cost, ro.candidates, ro.resultRows, so.plan, so.cost, so.candidates, so.resultRows)
		}
		rt, err := decompose(t.spans, i)
		if err != nil {
			return nil, 0, fmt.Errorf("request %d: %w", i, err)
		}
		cache1 := rp.cache.Counters()
		rt.counts = rc
		rt.chaseSteps = rp.metrics.ChaseSteps.Load() - steps0
		rt.homTests = rp.metrics.HomTests.Load() - hom0
		rt.cacheHits = cache1.Hits - cache0.Hits
		rt.cacheMisses = cache1.Misses - cache0.Misses
		rt.encodedBytes = so.encoded
		traces = append(traces, rt)
		wall = append(wall, sample[struct{}]{latency: rt.service + rt.encode})
	}
	if err := t.write(spansPath); err != nil {
		return nil, 0, err
	}
	return layerMetrics(traces, out), ms(summarize(wall).p50), nil
}

// layerMetrics averages the traced requests into the per-layer metrics
// and prints each layer's share of the traced request time.
func layerMetrics(traces []*requestTrace, out io.Writer) map[string]float64 {
	n := float64(len(traces))
	m := map[string]float64{}
	var (
		self     = map[string]time.Duration{}
		allocs   = map[string]uint64{}
		total    time.Duration
		overhead time.Duration
		encode   time.Duration
		hits     int64
		lookups  int64
	)
	for _, rt := range traces {
		for l, d := range rt.self {
			self[l] += d
		}
		for l, a := range rt.allocs {
			allocs[l] += a
		}
		overhead += rt.overhead
		encode += rt.encode
		total += rt.service + rt.encode
		hits += rt.cacheHits
		lookups += rt.cacheHits + rt.cacheMisses
		m["chase.steps"] += float64(rt.chaseSteps) / n
		m["chase.hom_tests"] += float64(rt.homTests) / n
		m["backchase.states"] += float64(rt.counts.states) / n
		m["rewrite.candidates_in"] += float64(rt.counts.candIn) / n
		m["rewrite.candidates_out"] += float64(rt.counts.candOut) / n
		m["rank.candidates"] += float64(rt.counts.ranked) / n
		m["engine.evals"] += float64(rt.counts.measure.Evals) / n
		m["engine.rows"] += float64(rt.counts.measure.Rows) / n
		m["engine.out_rows"] += float64(rt.counts.measure.OutRows) / n
		m["engine.skipped"] += float64(rt.counts.skipped) / n
		m["encode.bytes"] += float64(rt.encodedBytes) / n
		m["engine.compile_ms"] += ms(rt.engineCompile) / n
		m["engine.run_ms"] += ms(rt.self["engine"]-rt.engineCompile) / n
	}
	perReq := func(d time.Duration) float64 { return ms(d) / n }
	m["core.canon_us"] = perReq(self["core"]) * 1000
	m["chase.ms"] = perReq(self["chase"])
	m["backchase.ms"] = perReq(self["backchase"])
	m["rewrite.ms"] = perReq(self["rewrite"])
	m["rank.ms"] = perReq(self["rank"])
	m["service.overhead_ms"] = perReq(overhead)
	m["encode.ms"] = perReq(encode)
	for _, l := range []string{"chase", "backchase", "rewrite", "rank", "engine"} {
		m[l+".allocs"] = float64(allocs[l]) / n
	}
	m["backchase.cache_hit_ratio"] = float64(hits) / float64(max(lookups, 1))

	fmt.Fprintf(out, "  layer shares of traced request time (%d requests, %.1f ms each):", len(traces), perReq(total))
	for _, l := range layers {
		fmt.Fprintf(out, " %s %.1f%%", l, share(self[l], total))
	}
	fmt.Fprintf(out, " service %.1f%% encode %.1f%%\n", share(overhead, total), share(encode, total))
	return m
}

func share(d, total time.Duration) float64 {
	if total <= 0 {
		return 0
	}
	return 100 * float64(d) / float64(total)
}
