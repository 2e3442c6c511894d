package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"cnb/internal/core"
)

// schedule is a workload's seeded request order: an endless sequence of
// rounds, each a seed-shuffled permutation of the workload's roundLen
// request kinds. Runs always end on a round boundary, so every run
// replays every kind equally often and the latency mix does not depend
// on where the clock happened to stop.
type schedule struct {
	seed     int64
	roundLen int
}

// round returns the kind order of round r: a permutation of
// [0, roundLen) that depends only on the seed and r.
func (s schedule) round(r int) []int {
	return rand.New(rand.NewSource(s.seed*1_000_003 + int64(r))).Perm(s.roundLen)
}

// at returns the kind and the round of request i.
func (s schedule) at(i int) (kind, round int) {
	round = i / s.roundLen
	return s.round(round)[i%s.roundLen], round
}

// sample is one timed request of a closed-loop run.
type sample[O any] struct {
	latency time.Duration
	val     O
	err     error
}

// loopResult is the outcome of one closed-loop run.
type loopResult[O any] struct {
	samples []sample[O]
	wall    time.Duration
}

// runClosedLoop issues requests 0, 1, 2, ... from the given number of
// clients; each client sends its next request only after its previous
// one returned. prepare builds request i before the timed call, settle
// post-processes its outcome after it (for example to drop what the
// checks need not keep). Once
// the measuring time has passed, no new round is started, so the run
// ends after a whole number of rounds (at least one). prepare and do
// must be safe for concurrent use.
func runClosedLoop[R, O any](clients, roundLen int, measure time.Duration, prepare func(i int) R, do func(R) (O, error), settle func(O) O) loopResult[O] {
	var (
		mu      sync.Mutex
		next    int
		stopped bool
		samples []sample[O]
		wg      sync.WaitGroup
	)
	start := time.Now()
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if !stopped && next%roundLen == 0 && next > 0 && time.Since(start) >= measure {
			stopped = true
		}
		if stopped {
			return 0, false
		}
		next++
		samples = append(samples, sample[O]{})
		return next - 1, true
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				r := prepare(i)
				t0 := time.Now()
				v, err := do(r)
				lat := time.Since(t0)
				v = settle(v)
				mu.Lock()
				samples[i] = sample[O]{latency: lat, val: v, err: err}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return loopResult[O]{samples: samples, wall: time.Since(start)}
}

// latencyStats summarizes the successful requests of a run.
type latencyStats struct {
	n       int
	p50     time.Duration
	tail    time.Duration
	tailPct float64 // percentile tail was read at
	beyond  int     // samples above the tail sample
}

func summarize[O any](samples []sample[O]) latencyStats {
	var lat []time.Duration
	for _, s := range samples {
		if s.err == nil {
			lat = append(lat, s.latency)
		}
	}
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	st := latencyStats{n: len(lat)}
	if len(lat) == 0 {
		return st
	}
	st.p50 = lat[(len(lat)-1)/2]
	j := tailIndex(len(lat))
	st.tail = lat[j]
	st.beyond = len(lat) - 1 - j
	st.tailPct = 100 * float64(j+1) / float64(len(lat))
	return st
}

// tailBeyond is how many samples must lie above the tail sample.
const tailBeyond = 10

// tailIndex picks the tail sample among n sorted latencies: the highest
// one with at least tailBeyond samples above it, i.e. the
// 100*(n-10)/n-th percentile by nearest rank. With tailBeyond or fewer
// samples no such percentile exists, and the maximum stands in for it
// (with 0 samples beyond, which the output reports).
func tailIndex(n int) int {
	if n <= tailBeyond {
		return n - 1
	}
	return n - 1 - tailBeyond
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// shuffleRename alpha-renames q so that the sorted order of its variable
// names is a seeded non-identity permutation of the original order — the
// adversarial rename for canonicalization (E17's AlphaShuffle).
func shuffleRename(q *core.Query, prefix string, rng *rand.Rand) *core.Query {
	vars := make([]string, 0, len(q.Bindings))
	for _, b := range q.Bindings {
		vars = append(vars, b.Var)
	}
	sort.Strings(vars)
	perm := rng.Perm(len(vars))
	for len(vars) > 1 && sort.IntsAreSorted(perm) {
		perm = rng.Perm(len(vars))
	}
	names := make(map[string]string, len(vars))
	for j, v := range vars {
		names[v] = fmt.Sprintf("%s%04d", prefix, perm[j])
	}
	return q.RenameVars(func(v string) string { return names[v] })
}
