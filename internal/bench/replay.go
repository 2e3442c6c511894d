// The one replay harness behind every serving experiment (E16, E17, E19,
// E20, E21) and the exported load runs: closed-loop workers replay a
// fixed schedule against one internal/service.Service, a per-request hook
// does (and checks) the work, and replay owns the timing, the
// percentiles and the error accounting.
package bench

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cnb/internal/backchase"
	"cnb/internal/core"
	"cnb/internal/eval"
	"cnb/internal/instance"
	"cnb/internal/service"
)

// replayResult is the outcome of one replay.
type replayResult struct {
	Errors int
	Wall   time.Duration
	// Latency is each request's wall time, in schedule order.
	Latency []time.Duration
	sorted  []time.Duration // Latency ascending
}

// percentile reads the p-quantile of the replay's latencies.
func (r *replayResult) percentile(p float64) time.Duration {
	return percentile(r.sorted, p)
}

// replay runs every schedule entry through do with workers closed-loop
// clients: each worker takes the next entry as soon as its previous
// request returns. At one worker the schedule runs serially, in order —
// how the tiering experiments drive their phases. A failing request
// aborts nothing (the rest of the schedule still runs, so one failure
// cannot mask others), but every failure is counted and the first is
// returned alongside the result, tagged with its schedule index. A nil
// result means the replay could not start.
func replay[R any](ctx context.Context, workers int, schedule []R, do func(context.Context, R) error) (*replayResult, error) {
	if workers < 1 || len(schedule) < 1 {
		return nil, fmt.Errorf("replay: need at least 1 worker and 1 request")
	}
	latency := make([]time.Duration, len(schedule))
	var (
		next     atomic.Int64
		errCount atomic.Int64
		errMu    sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(schedule) {
					return
				}
				t0 := time.Now()
				err := do(ctx, schedule[i])
				latency[i] = time.Since(t0)
				if err != nil {
					errCount.Add(1)
					errMu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("request %d: %w", i, err)
					}
					errMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	sorted := slices.Clone(latency)
	slices.Sort(sorted)
	return &replayResult{
		Errors:  int(errCount.Load()),
		Wall:    time.Since(start),
		Latency: latency,
		sorted:  sorted,
	}, firstErr
}

// percentile reads the p-quantile (0..1) of an ascending-sorted slice
// using the nearest-rank method: rank = ceil(p * n). Degenerate windows
// are answered, never panicked on: an empty window reports 0 (a
// zero-request replay bucket has no latency, not a garbage one), a
// single-sample window reports its sample for every p, and p outside
// [0, 1] — including NaN, whose int conversion is platform-defined —
// clamps to the window's min/max rather than indexing out of range.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	if math.IsNaN(p) || p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// LoadQuery is one shape of the replay mix.
type LoadQuery struct {
	Name string
	Req  service.Request
}

// LoadConfig sizes a load run.
type LoadConfig struct {
	// Workers is the closed-loop client count: each worker issues its
	// next request as soon as the previous one returns.
	Workers int
	// Requests is the total request count across all workers.
	Requests int
	// AlphaRate is the fraction of requests issued as alpha-renamed
	// variants of their shape (a fresh uniform variable-name prefix per
	// request — an order-preserving rename, the kind client-side query
	// generators emit). The serving layer keys flights and cache entries
	// by the canonical signature, which renames normalize away, so these
	// must coalesce and hit exactly like verbatim repeats.
	AlphaRate float64
	// AlphaShuffle hardens the alpha renames: instead of an
	// order-preserving prefix rename, each renamed request draws a random
	// permutation of the variable-name order (reversals included), the
	// adversarial case for canonicalization — a tie-break on raw variable
	// names canonicalizes such variants apart. With a truly
	// renaming-invariant canonical form (core.Query.CanonicalSignature)
	// shuffled renames must coalesce and hit exactly like verbatim
	// repeats; E17 gates exactly that.
	AlphaShuffle bool
	// Seed makes the request schedule (shape choice and renames)
	// deterministic; at Workers=1 the service counters are then exact,
	// which is what lets cmd/benchcheck gate them.
	Seed int64
}

// LoadResult is the outcome of one load run.
type LoadResult struct {
	Requests   int
	Errors     int
	Wall       time.Duration
	Throughput float64 // requests per second
	P50, P99   time.Duration
	// Service and Cache snapshot the service's counters after the run
	// (the service must be fresh for them to describe this run alone).
	Service service.Counters
	Cache   backchase.CacheCounters
	// HitRate is Cache.Hits / (Cache.Hits + Cache.Misses).
	HitRate float64
}

// QueryLoadResult extends LoadResult with the execution-side aggregates
// of a Service.Query replay.
type QueryLoadResult struct {
	LoadResult
	// Evals / Rows / OutRows sum StreamPlan.Measure over every
	// successful request; ResultRows sums the (pre-cap) result
	// cardinalities. At Workers=1 all four are deterministic.
	Evals      int64
	Rows       int64
	OutRows    int64
	ResultRows int64
	// Skipped sums the non-executable candidates passed over by the
	// delivery rule across all requests.
	Skipped int64
}

// buildSchedule renders the deterministic request sequence: request i
// picks a shape and, at the alpha rate, an alpha-renamed copy with
// request-unique variable names (order-preserving by default,
// order-shuffling when cfg.AlphaShuffle is set).
func buildSchedule(mix []LoadQuery, cfg LoadConfig) ([]service.Request, error) {
	if len(mix) == 0 {
		return nil, fmt.Errorf("replay: empty mix")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	schedule := make([]service.Request, max(cfg.Requests, 0))
	for i := range schedule {
		shape := mix[rng.Intn(len(mix))]
		req := shape.Req
		if rng.Float64() < cfg.AlphaRate {
			prefix := fmt.Sprintf("ld%d_", i)
			if cfg.AlphaShuffle {
				req.Query = shuffleRename(req.Query, prefix, rng)
			} else {
				req.Query = req.Query.RenameVars(func(v string) string { return prefix + v })
			}
		}
		schedule[i] = req
	}
	return schedule, nil
}

// shuffleRename alpha-renames the query so that the lexicographic order
// of its variable names is a random permutation of the original order:
// sorted original variables v_0 < v_1 < ... map to zero-padded fresh
// names whose sorted order realizes perm. The identity permutation is
// explicitly skipped (when more than one variable exists), so every
// shuffled rename genuinely reorders at least one name pair — the case a
// raw-name canonicalization tie-break gets wrong.
func shuffleRename(q *core.Query, prefix string, rng *rand.Rand) *core.Query {
	vars := make([]string, 0, len(q.Bindings))
	for _, b := range q.Bindings {
		vars = append(vars, b.Var)
	}
	sort.Strings(vars)
	perm := rng.Perm(len(vars))
	if len(vars) > 1 {
		for identity(perm) {
			perm = rng.Perm(len(vars))
		}
	}
	names := make(map[string]string, len(vars))
	for j, v := range vars {
		names[v] = fmt.Sprintf("%s%04d", prefix, perm[j])
	}
	return q.RenameVars(func(v string) string { return names[v] })
}

func identity(perm []int) bool {
	for i, p := range perm {
		if i != p {
			return false
		}
	}
	return true
}

// runMix replays the mix's seeded schedule through do with cfg.Workers
// clients and summarizes the run against the service's counters.
func runMix(ctx context.Context, svc *service.Service, mix []LoadQuery, cfg LoadConfig, do func(context.Context, service.Request) error) (*LoadResult, error) {
	schedule, err := buildSchedule(mix, cfg)
	if err != nil {
		return nil, err
	}
	rep, err := replay(ctx, cfg.Workers, schedule, do)
	if rep == nil {
		return nil, err
	}
	res := &LoadResult{
		Requests:   len(schedule),
		Errors:     rep.Errors,
		Wall:       rep.Wall,
		Throughput: float64(len(schedule)) / rep.Wall.Seconds(),
		P50:        rep.percentile(0.50),
		P99:        rep.percentile(0.99),
		Service:    svc.Counters(),
		Cache:      svc.CacheCounters(),
	}
	if total := res.Cache.Hits + res.Cache.Misses; total > 0 {
		res.HitRate = float64(res.Cache.Hits) / float64(total)
	}
	return res, err
}

// RunLoad replays the mix through svc.Optimize with cfg.Workers
// closed-loop clients and returns the measured result. Any request error
// aborts nothing — the remaining requests still run, so one failure
// cannot mask others — but the first error is returned alongside the
// result, and LoadResult.Errors counts them all.
func RunLoad(ctx context.Context, svc *service.Service, mix []LoadQuery, cfg LoadConfig) (*LoadResult, error) {
	return runMix(ctx, svc, mix, cfg, func(ctx context.Context, req service.Request) error {
		_, err := svc.Optimize(ctx, req)
		return err
	})
}

// RunQueryLoad replays the mix through svc.Query against the named
// registered instance, with the same closed-loop workers, deterministic
// seeded schedule and error accounting as RunLoad, summing each
// successful request's executed work.
func RunQueryLoad(ctx context.Context, svc *service.Service, mix []LoadQuery, cfg LoadConfig, instName string) (*QueryLoadResult, error) {
	var (
		mu  sync.Mutex
		res QueryLoadResult
	)
	load, err := runMix(ctx, svc, mix, cfg, func(ctx context.Context, req service.Request) error {
		qr, err := svc.Query(ctx, service.QueryRequest{Request: req, Instance: instName})
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		res.Evals += qr.Measure.Evals
		res.Rows += qr.Measure.Rows
		res.OutRows += qr.Measure.OutRows
		res.ResultRows += int64(qr.ResultRows)
		res.Skipped += int64(qr.Skipped)
		return nil
	})
	if load == nil {
		return nil, err
	}
	res.LoadResult = *load
	return &res, err
}

// loadColumns heads a load-replay table (E16, E17, E19): the columns
// record fills for every run, then the experiment's extra columns.
func loadColumns(extra ...string) []string {
	return append([]string{"workers", "requests", "errors", "wall", "req/s", "p50", "p99"}, extra...)
}

// record appends the run's table row (loadColumns, then extra) and its
// metrics: throughput and p99 per worker count (informational wall
// clocks) and, for the deterministic workers=1 pass, the serving counters
// cmd/benchcheck gates exactly.
func (r *LoadResult) record(tb *Table, workers int, extra ...string) {
	tb.Rows = append(tb.Rows, append([]string{
		fmt.Sprintf("%d", workers),
		fmt.Sprintf("%d", r.Requests),
		fmt.Sprintf("%d", r.Errors),
		r.Wall.Round(time.Millisecond).String(),
		fmt.Sprintf("%.1f", r.Throughput),
		r.P50.Round(time.Microsecond).String(),
		r.P99.Round(time.Millisecond).String(),
	}, extra...))
	if workers == 1 {
		tb.Metrics["cache_hits"] = float64(r.Cache.Hits)
		tb.Metrics["cache_misses"] = float64(r.Cache.Misses)
		tb.Metrics["backchase_runs"] = float64(r.Service.BackchaseRuns)
		tb.Metrics["hit_rate"] = r.HitRate
	}
	tb.Metrics[fmt.Sprintf("throughput_w%d", workers)] = r.Throughput
	tb.Metrics[fmt.Sprintf("p99_w%d_ms", workers)] = float64(r.P99.Milliseconds())
}

// checkServed is the serving experiments' differential oracle: a served
// (uncapped) result must equal eval's evaluation of the original logical
// query on the same instance. It returns the result cardinality.
func checkServed(got *service.QueryResponse, q *core.Query, in *instance.Instance) (int, error) {
	want, err := eval.QueryEager(q, in)
	if err != nil {
		return 0, fmt.Errorf("eval: %w", err)
	}
	if got.ResultRows != want.Len() || len(got.Rows) != want.Len() {
		return 0, fmt.Errorf("served %d rows, eval %d", got.ResultRows, want.Len())
	}
	for _, v := range got.Rows {
		if !want.Contains(v) {
			return 0, fmt.Errorf("served row %s not in eval's result", v)
		}
	}
	return want.Len(), nil
}

// The tiering experiments (E20, E21) derive their plan-latency budget
// from measured cold latencies, clamped to [minBudget, maxBudget]: never
// below the warm-path latency (a cache-hit flight is ~1ms — a budget
// under it would push even warm shapes to the greedy tier), never above
// 200ms (past that the "instant" tier isn't).
const (
	minBudget = 2 * time.Millisecond
	maxBudget = 200 * time.Millisecond
)

func clampBudget(d time.Duration) time.Duration {
	return min(max(d, minBudget), maxBudget)
}

// waitUpgrades blocks until the service has counted want detached
// upgrades (the nightly-sized slow shapes can take a while to land).
func waitUpgrades(svc *service.Service, want int64) error {
	deadline := time.Now().Add(2 * time.Minute)
	for svc.Counters().Upgraded < want && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := svc.Counters().Upgraded; got < want {
		return fmt.Errorf("only %d/%d detached flights upgraded within deadline", got, want)
	}
	return nil
}
