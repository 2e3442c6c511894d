package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"cnb/internal/bench"
	"cnb/internal/core"
	"cnb/internal/cost"
	"cnb/internal/engine"
	"cnb/internal/eval"
	"cnb/internal/instance"
	"cnb/internal/optimizer"
	"cnb/internal/service"
	"cnb/internal/workload"
)

// cnbdOptions are the service.Options cmd/cnbd builds at its default
// flags: all cores, default plan cache, exhaustive search, no
// statistics, synchronous serving (no -max-plan-latency) — the zero
// value, spelled out field by field as cnbd's main sets them.
func cnbdOptions() service.Options {
	return service.Options{
		Parallelism:       0,
		CacheSize:         0,
		CacheShards:       0,
		CostBounded:       false,
		MaxPlanLatency:    0,
		FastPlanThreshold: 0,
	}
}

// request is one generated request of a workload's schedule.
type request struct {
	index, kind, round int
	req                service.Request
}

// outcome is what a request delivered, as the checks and the traced
// run's comparison need it.
type outcome struct {
	best       *core.Query
	plan       string
	cost       float64
	candidates int
	resultRows int
	rows       []instance.Value
	skipped    int
	measure    engine.Measure
	encoded    int // bytes of the JSON response, query-exec only
}

// setupTimes splits one set-up into its phases.
type setupTimes struct {
	generate, install, warm time.Duration
}

func (s setupTimes) total() time.Duration { return s.generate + s.install + s.warm }

// benchWorkload is one workload: a fresh set-up, a seeded request
// schedule, the public Service call each request makes, and the check
// its outcome must pass.
type benchWorkload interface {
	// setup drops the previous state and builds a fresh service with
	// its inputs installed and its caches warm.
	setup(ctx context.Context) (setupTimes, error)
	// prepareChecks computes the check references (after setup).
	prepareChecks(ctx context.Context) error
	kinds() int
	request(i int) request
	// call is the public Service call of one request.
	call(ctx context.Context, r request) (outcome, error)
	// encode renders the response as cnbd does (a no-op for plans).
	encode(o *outcome) error
	check(r request, o outcome) error
	// replay re-issues the request through the layer calls the Service
	// makes, in spans on t.
	replay(ctx context.Context, t *tracer, rp *replayer, r request) (outcome, replayCounts, error)
	// warmRequests are the requests the set-up warmed the service's
	// caches with, verbatim.
	warmRequests() []request
	service() *service.Service
}

func newWorkload(cfg config) (benchWorkload, error) {
	switch cfg.workload {
	case "warm-plan":
		return &warmPlan{seed: cfg.seed}, nil
	case "cold-plan":
		return &coldPlan{seed: cfg.seed}, nil
	case "query-exec":
		return &queryExec{seed: cfg.seed, factRows: cfg.factRows}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// requestRand is the deterministic source of request i's renames.
func requestRand(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7_919 + int64(i)*104_729 + 1))
}

// planOutcome reads the delivered plan of an optimizer result.
func planOutcome(cands []cost.RankedPlan) (outcome, error) {
	if len(cands) == 0 {
		return outcome{}, fmt.Errorf("no candidate plans")
	}
	return outcome{best: cands[0].Query, plan: cands[0].Query.String(), cost: cands[0].Cost, candidates: len(cands)}, nil
}

func optimizeCall(ctx context.Context, svc *service.Service, r request) (outcome, error) {
	res, err := svc.Optimize(ctx, r.req)
	if err != nil {
		return outcome{}, err
	}
	return planOutcome(res.Result.Candidates)
}

func optimizeReplay(ctx context.Context, t *tracer, rp *replayer, svc *service.Service, r request) (outcome, replayCounts, error) {
	ranked, rc, err := rp.optimize(ctx, t, r.req, svc.Stats())
	if err != nil {
		return outcome{}, rc, err
	}
	o, err := planOutcome(ranked)
	return o, rc, err
}

// warmPlan replays Service.Optimize over the seven serving shapes with
// a warm plan cache.
type warmPlan struct {
	seed   int64
	shapes []bench.LoadQuery
	svc    *service.Service
	ref    []float64 // best cost per shape from a fresh optimizer.Optimize
}

func (w *warmPlan) setup(ctx context.Context) (setupTimes, error) {
	w.svc = nil // release the previous set-up before building the next
	runtime.GC()
	var st setupTimes
	t0 := time.Now()
	if err := w.generate(); err != nil {
		return st, err
	}
	t1 := time.Now()
	w.svc = service.New(cnbdOptions())
	t2 := time.Now()
	for _, s := range w.shapes {
		if _, err := w.svc.Optimize(ctx, s.Req); err != nil {
			return st, fmt.Errorf("warm %s: %w", s.Name, err)
		}
	}
	t3 := time.Now()
	return setupTimes{generate: t1.Sub(t0), install: t2.Sub(t1), warm: t3.Sub(t2)}, nil
}

// generate builds the seven serving shapes: bench.E17Mix plus
// bench.SmallServeMix.
func (w *warmPlan) generate() error {
	mix, err := bench.E17Mix()
	if err != nil {
		return err
	}
	small, err := bench.SmallServeMix()
	if err != nil {
		return err
	}
	w.shapes = append(mix, small...)
	return nil
}

func (w *warmPlan) prepareChecks(ctx context.Context) error {
	w.ref = make([]float64, len(w.shapes))
	for k, s := range w.shapes {
		res, err := optimizer.OptimizeContext(ctx, s.Req.Query, optimizer.Options{
			Deps:          s.Req.Deps,
			PhysicalNames: s.Req.PhysicalNames,
		})
		if err != nil {
			return fmt.Errorf("reference %s: %w", s.Name, err)
		}
		if res.Best == nil {
			return fmt.Errorf("reference %s: no plan", s.Name)
		}
		w.ref[k] = res.Best.Cost
	}
	return nil
}

func (w *warmPlan) kinds() int { return len(w.shapes) }

func (w *warmPlan) request(i int) request {
	kind, round := schedule{seed: w.seed, roundLen: w.kinds()}.at(i)
	req := w.shapes[kind].Req
	if rng := requestRand(w.seed, i); rng.Intn(2) == 0 {
		req.Query = shuffleRename(req.Query, fmt.Sprintf("r%d_", i), rng)
	}
	return request{index: i, kind: kind, round: round, req: req}
}

func (w *warmPlan) call(ctx context.Context, r request) (outcome, error) {
	return optimizeCall(ctx, w.svc, r)
}

func (w *warmPlan) encode(*outcome) error { return nil }

func (w *warmPlan) check(r request, o outcome) error {
	if o.cost != w.ref[r.kind] {
		return fmt.Errorf("%s: delivered cost %v, fresh optimizer %v", w.shapes[r.kind].Name, o.cost, w.ref[r.kind])
	}
	return nil
}

func (w *warmPlan) replay(ctx context.Context, t *tracer, rp *replayer, r request) (outcome, replayCounts, error) {
	return optimizeReplay(ctx, t, rp, w.svc, r)
}

func (w *warmPlan) warmRequests() []request {
	out := make([]request, len(w.shapes))
	for k, s := range w.shapes {
		out[k] = request{kind: k, req: s.Req}
	}
	return out
}

func (w *warmPlan) service() *service.Service { return w.svc }

// coldKind is one shape family of cold-plan: a star/snowflake
// configuration, or ProjDept when star is nil. Every request gets a
// fresh selection constant.
type coldKind struct {
	name string
	star *workload.StarConfig
}

// coldKinds are the cold-plan shapes of one round. star d=2 v=1 comes
// twice (in adjacent kinds): with these weights the tail sample, 10
// from the top, falls among its samples in every run of 5 to 10 rounds,
// and the median between them and snowflake d=1's of similar cost, so
// neither jumps between shapes with the run length.
var coldKinds = []coldKind{
	{"star d=1 v=1", &workload.StarConfig{Dims: 1, Views: 1, FactIndexes: 1, DimIndex: true, Select: true, FKConstraints: true}},
	{"snowflake d=1 v=1", &workload.StarConfig{Dims: 1, Views: 1, FactIndexes: 1, DimIndex: true, Select: true, FKConstraints: true, Snowflake: true}},
	{"star d=2 v=1", &workload.StarConfig{Dims: 2, Views: 1, FactIndexes: 1, DimIndex: true, Select: true, FKConstraints: true}},
	{"star d=2 v=1", &workload.StarConfig{Dims: 2, Views: 1, FactIndexes: 1, DimIndex: true, Select: true, FKConstraints: true}},
	{"star d=2 v=2", &workload.StarConfig{Dims: 2, Views: 2, FactIndexes: 1, DimIndex: true, Select: true, FKConstraints: true}},
	{"projdept", nil},
}

// coldPool is the number of seeded constants per round slot of a shape;
// later rounds count on from it. Check instances grow with the
// constant, so a small pool keeps the eval oracle fast.
const coldPool = 16

// coldWarmConstant (plus the kind index) is the selection constant of
// the set-up warm-up requests, outside every constant a run uses.
const coldWarmConstant = 1_000_000

// coldConstant returns the selection constant of a kind's round-th
// request. The kinds of one shape draw from one seeded permutation, in
// disjoint slots, so no two requests of a run share a constant.
func coldConstant(seed int64, kind, round int) int {
	first, copies := -1, 0
	for k, ck := range coldKinds {
		if ck.name == coldKinds[kind].name {
			if first < 0 {
				first = k
			}
			copies++
		}
	}
	i := round*copies + kind - first
	if i >= coldPool*copies {
		return i
	}
	return rand.New(rand.NewSource(seed*31 + int64(first))).Perm(coldPool * copies)[i]
}

// build renders the kind's query with selection constant c.
func (k coldKind) build(c int) (service.Request, error) {
	if k.star != nil {
		cfg := *k.star
		cfg.SelectA = int64(c)
		s, err := workload.NewStar(cfg)
		if err != nil {
			return service.Request{}, err
		}
		return service.Request{Query: s.Q, Deps: s.Deps}, nil
	}
	pd, err := workload.NewProjDept()
	if err != nil {
		return service.Request{}, err
	}
	q := pd.Q.Clone()
	q.Conds = append([]core.Cond(nil), q.Conds...)
	for j, cd := range q.Conds {
		if cd.R.String() == core.C("CitiBank").String() {
			q.Conds[j].R = core.C(custName(c))
		}
	}
	return service.Request{Query: q, Deps: pd.AllDeps(), PhysicalNames: pd.Physical.NameSet()}, nil
}

func custName(c int) string { return fmt.Sprintf("Cust%02d", c) }

// checkInstance generates a small instance on which constant c selects
// rows, small enough for the eval oracle's nested loops.
func (k coldKind) checkInstance(c int, seed int64) (*instance.Instance, error) {
	n := max(c+1, 8)
	if k.star != nil {
		s, err := workload.NewStar(*k.star)
		if err != nil {
			return nil, err
		}
		return s.Generate(workload.StarGenOptions{NumFact: 4 * n, NumDim: n, NumSub: 4, DomA: n, Seed: seed}), nil
	}
	pd, err := workload.NewProjDept()
	if err != nil {
		return nil, err
	}
	return pd.Generate(workload.GenOptions{NumCustomers: n, Seed: seed}), nil
}

// coldPlan replays Service.Optimize on shapes the service has never
// seen: every plan-cache access misses and inserts.
type coldPlan struct {
	seed int64
	svc  *service.Service
}

func (w *coldPlan) setup(ctx context.Context) (setupTimes, error) {
	w.svc = nil // release the previous set-up before building the next
	runtime.GC()
	var st setupTimes
	t0 := time.Now()
	warm := make([]service.Request, len(coldKinds))
	for k, kind := range coldKinds {
		req, err := kind.build(coldWarmConstant + k)
		if err != nil {
			return st, err
		}
		warm[k] = req
	}
	t1 := time.Now()
	w.svc = service.New(cnbdOptions())
	t2 := time.Now()
	// One flight per kind at a constant no request uses, so the timed
	// requests meet a running service, yet never its cache entries.
	for k, req := range warm {
		if _, err := w.svc.Optimize(ctx, req); err != nil {
			return st, fmt.Errorf("warm %s: %w", coldKinds[k].name, err)
		}
	}
	t3 := time.Now()
	return setupTimes{generate: t1.Sub(t0), install: t2.Sub(t1), warm: t3.Sub(t2)}, nil
}

func (w *coldPlan) prepareChecks(context.Context) error { return nil }

func (w *coldPlan) kinds() int { return len(coldKinds) }

func (w *coldPlan) request(i int) request {
	kind, round := schedule{seed: w.seed, roundLen: w.kinds()}.at(i)
	req, err := coldKinds[kind].build(coldConstant(w.seed, kind, round))
	if err != nil {
		// The kinds are fixed configurations that always build.
		panic(fmt.Sprintf("cold-plan: build %s: %v", coldKinds[kind].name, err))
	}
	return request{index: i, kind: kind, round: round, req: req}
}

func (w *coldPlan) call(ctx context.Context, r request) (outcome, error) {
	return optimizeCall(ctx, w.svc, r)
}

func (w *coldPlan) encode(*outcome) error { return nil }

func (w *coldPlan) check(r request, o outcome) error {
	kind := coldKinds[r.kind]
	in, err := kind.checkInstance(coldConstant(w.seed, r.kind, r.round), int64(r.index)+1)
	if err != nil {
		return err
	}
	want, err := eval.Query(r.req.Query, in)
	if err != nil {
		return fmt.Errorf("%s: eval original: %w", kind.name, err)
	}
	got, err := eval.Query(o.best, in)
	if err != nil {
		return fmt.Errorf("%s: eval best plan: %w", kind.name, err)
	}
	if !got.Equal(want) {
		return fmt.Errorf("%s: best plan returns %d rows, original query %d", kind.name, got.Len(), want.Len())
	}
	return nil
}

func (w *coldPlan) replay(ctx context.Context, t *tracer, rp *replayer, r request) (outcome, replayCounts, error) {
	return optimizeReplay(ctx, t, rp, w.svc, r)
}

// warmRequests is empty: cold-plan's timed requests are shapes no
// cache has seen.
func (w *coldPlan) warmRequests() []request { return nil }

func (w *coldPlan) service() *service.Service { return w.svc }

// queryKind is one query-exec request kind: a star shape at one
// selection constant.
type queryKind struct {
	name string
	req  service.Request
}

// queryRef is the reference answer of a query kind.
type queryRef struct {
	rows   int
	prefix []string // keys of the first DefaultMaxResultRows rows
}

// Query-exec instance and shapes: E19's star schema (two dimensions,
// foreign-key, dimension-key and selection indexes) at 10^6 zipf(1.2)
// fact rows; E19's narrow and project-all shapes plus the d=1 narrow
// shape (at d=1 project-all is the same query).
const (
	queryFactRows = 1_000_000
	queryInstance = "star"
)

// queryConstStrata are the selection constants each shape draws one
// constant from per stratum. Under the zipf skew the constant decides
// how many facts a request reads (about 42k, 30k and 25k rows for the
// three strata at 10^6 facts); constants within a stratum select within
// 10% of each other, so the seed varies the requests without moving the
// latency mix.
var queryConstStrata = [][]int64{{5, 6}, {8, 9}, {11, 12}}

var queryShapes = []struct {
	name       string
	dims       int
	projectAll bool
}{
	{"star d=2 narrow", 2, false},
	{"star d=2 project-all", 2, true},
	{"star d=1 narrow", 1, false},
}

func queryStarConfig(dims int) workload.StarConfig {
	return workload.StarConfig{
		Dims: dims, FactIndexes: 1, DimKeyIndexes: 1, DimIndex: true,
		Select: true, FKConstraints: true,
	}
}

// queryExec replays Service.Query and cnbd's response encoding against
// one installed star instance.
type queryExec struct {
	seed     int64
	factRows int
	kindsL   []queryKind
	svc      *service.Service
	in       *instance.Instance
	refs     []queryRef
}

func (w *queryExec) setup(ctx context.Context) (setupTimes, error) {
	// Release the previous set-up before building the next: two
	// 10^6-row instances need not be live at once.
	w.svc, w.in = nil, nil
	runtime.GC()
	var st setupTimes
	t0 := time.Now()
	if err := w.buildKinds(); err != nil {
		return st, err
	}
	star, err := workload.NewStar(queryStarConfig(2))
	if err != nil {
		return st, err
	}
	gen := workload.StarGenOptions{NumFact: w.factRows, NumDim: 200, DomA: 20, ZipfS: 1.2, Seed: w.seed}
	w.in = star.Generate(gen)
	t1 := time.Now()
	w.svc = service.New(cnbdOptions())
	if _, err := w.svc.InstallInstance(queryInstance, w.in); err != nil {
		return st, err
	}
	// What an operator installs through POST /stats.
	w.svc.SetStats(star.SyntheticStats(gen))
	t2 := time.Now()
	for _, k := range w.kindsL {
		if _, err := w.svc.Query(ctx, service.QueryRequest{Request: k.req, Instance: queryInstance}); err != nil {
			return st, fmt.Errorf("warm %s: %w", k.name, err)
		}
	}
	t3 := time.Now()
	return setupTimes{generate: t1.Sub(t0), install: t2.Sub(t1), warm: t3.Sub(t2)}, nil
}

// buildKinds draws each shape's seeded selection constants, one per
// stratum.
func (w *queryExec) buildKinds() error {
	rng := rand.New(rand.NewSource(w.seed))
	w.kindsL = w.kindsL[:0]
	for _, sh := range queryShapes {
		for _, stratum := range queryConstStrata {
			cfg := queryStarConfig(sh.dims)
			cfg.ProjectAll = sh.projectAll
			cfg.SelectA = stratum[rng.Intn(len(stratum))]
			s, err := workload.NewStar(cfg)
			if err != nil {
				return err
			}
			w.kindsL = append(w.kindsL, queryKind{
				name: fmt.Sprintf("%s A=%d", sh.name, cfg.SelectA),
				req:  service.Request{Query: s.Q, Deps: s.Deps, PhysicalNames: s.Physical.NameSet()},
			})
		}
	}
	return nil
}

// prepareChecks runs each kind's original logical query — the baseline
// plan as written — on the streaming engine, as E18 does: the eval
// oracle's nested loops cannot finish at 10^6 rows. Two references run
// at a time; plans compiled separately may share the instance.
func (w *queryExec) prepareChecks(ctx context.Context) error {
	w.refs = make([]queryRef, len(w.kindsL))
	errs := make([]error, len(w.kindsL))
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for k, kind := range w.kindsL {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			set, err := engine.StreamExecute(ctx, kind.req.Query, w.in, engine.StreamOptions{Stats: w.svc.Stats(), Buffer: 2})
			if err != nil {
				errs[k] = fmt.Errorf("reference %s: %w", kind.name, err)
				return
			}
			w.refs[k] = queryRef{rows: set.Len(), prefix: keys(capRows(set))}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func keys(vs []instance.Value) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Key()
	}
	return out
}

func (w *queryExec) kinds() int { return len(w.kindsL) }

func (w *queryExec) request(i int) request {
	kind, round := schedule{seed: w.seed, roundLen: w.kinds()}.at(i)
	req := w.kindsL[kind].req
	if rng := requestRand(w.seed, i); rng.Intn(2) == 0 {
		req.Query = shuffleRename(req.Query, fmt.Sprintf("r%d_", i), rng)
	}
	return request{index: i, kind: kind, round: round, req: req}
}

func (w *queryExec) call(ctx context.Context, r request) (outcome, error) {
	qr, err := w.svc.Query(ctx, service.QueryRequest{Request: r.req, Instance: queryInstance})
	if err != nil {
		return outcome{}, err
	}
	return outcome{
		plan:       qr.Plan,
		cost:       qr.EstCost,
		candidates: len(qr.Optimize.Result.Candidates),
		resultRows: qr.ResultRows,
		rows:       qr.Rows,
		skipped:    qr.Skipped,
		measure:    qr.Measure,
	}, nil
}

// execJSON mirrors the fields cmd/cnbd's /query response carries per
// query.
type execJSON struct {
	Plan       string  `json:"plan"`
	EstCost    float64 `json:"est_cost"`
	Skipped    int     `json:"skipped,omitempty"`
	Rows       []any   `json:"rows,omitempty"`
	ResultRows int     `json:"result_rows"`
	Truncated  bool    `json:"truncated,omitempty"`
	Measure    struct {
		Evals   int64 `json:"evals"`
		Rows    int64 `json:"rows"`
		OutRows int64 `json:"out_rows"`
	} `json:"measure"`
}

// encode renders the rows with service.ValueJSON and the response with
// encoding/json, indented, as cnbd's handler writes it.
func (w *queryExec) encode(o *outcome) error {
	e := execJSON{Plan: o.plan, EstCost: o.cost, Skipped: o.skipped, ResultRows: o.resultRows, Truncated: len(o.rows) < o.resultRows}
	e.Rows = make([]any, 0, len(o.rows))
	for _, v := range o.rows {
		e.Rows = append(e.Rows, service.ValueJSON(v))
	}
	e.Measure.Evals, e.Measure.Rows, e.Measure.OutRows = o.measure.Evals, o.measure.Rows, o.measure.OutRows
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(map[string]any{"instance": queryInstance, "queries": []execJSON{e}}); err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	o.encoded = buf.Len()
	return nil
}

func (w *queryExec) check(r request, o outcome) error {
	ref := w.refs[r.kind]
	name := w.kindsL[r.kind].name
	if o.resultRows != ref.rows {
		return fmt.Errorf("%s: %d result rows, reference %d", name, o.resultRows, ref.rows)
	}
	got := keys(o.rows)
	if len(got) != len(ref.prefix) {
		return fmt.Errorf("%s: %d rows returned, reference %d", name, len(got), len(ref.prefix))
	}
	for j := range got {
		if got[j] != ref.prefix[j] {
			return fmt.Errorf("%s: row %d is %s, reference %s", name, j, got[j], ref.prefix[j])
		}
	}
	return nil
}

func (w *queryExec) replay(ctx context.Context, t *tracer, rp *replayer, r request) (outcome, replayCounts, error) {
	st := w.svc.Stats()
	ranked, rc, err := rp.optimize(ctx, t, r.req, st)
	if err != nil {
		return outcome{}, rc, err
	}
	o, err := rp.execute(ctx, t, ranked, w.in, st, &rc)
	o.measure = rc.measure
	return o, rc, err
}

func (w *queryExec) warmRequests() []request {
	out := make([]request, len(w.kindsL))
	for k, q := range w.kindsL {
		out[k] = request{kind: k, req: q.req}
	}
	return out
}

func (w *queryExec) service() *service.Service { return w.svc }
