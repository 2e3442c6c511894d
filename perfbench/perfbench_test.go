package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cnb/internal/eval"
)

var update = flag.Bool("update", false, "rewrite BENCHMARK.json and spec.json from spec.go")

// schedules renders the first rounds of a workload's request schedule.
func schedules(t *testing.T, name string, seed int64) string {
	t.Helper()
	w, err := newWorkload(config{workload: name, seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	switch w := w.(type) {
	case *warmPlan:
		err = w.generate()
	case *queryExec:
		err = w.buildKinds()
	}
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for i := 0; i < 3*w.kinds(); i++ {
		r := w.request(i)
		fmt.Fprintf(&b, "%d %d %s\n", r.kind, r.round, r.req.Query)
	}
	return b.String()
}

func TestScheduleDeterministic(t *testing.T) {
	for _, ws := range workloadSpecs {
		t.Run(ws.Name, func(t *testing.T) {
			a, b := schedules(t, ws.Name, 7), schedules(t, ws.Name, 7)
			if a != b {
				t.Errorf("seed 7 gave two different schedules")
			}
			if c := schedules(t, ws.Name, 8); c == a {
				t.Errorf("seeds 7 and 8 gave the same schedule")
			}
		})
	}
}

// TestColdConstantsFresh: no two cold-plan requests of a run share a
// shape and a selection constant, so none can hit the plan cache or
// join another's flight.
func TestColdConstantsFresh(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seen := map[string]bool{}
		for round := 0; round < 40; round++ {
			for k, kind := range coldKinds {
				c := coldConstant(seed, k, round)
				key := fmt.Sprintf("%s/%d", kind.name, c)
				if seen[key] || c >= coldWarmConstant {
					t.Fatalf("seed %d round %d: constant %s reused or reserved", seed, round, key)
				}
				seen[key] = true
			}
		}
	}
}

// TestColdChecksSelectRows: the check instances make the oracle
// compare real rows, not mostly empty results.
func TestColdChecksSelectRows(t *testing.T) {
	w := &coldPlan{seed: 1}
	var nonEmpty, total int
	for i := 0; i < 4*w.kinds(); i++ {
		r := w.request(i)
		in, err := coldKinds[r.kind].checkInstance(coldConstant(w.seed, r.kind, r.round), int64(i)+1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eval.Query(r.req.Query, in)
		if err != nil {
			t.Fatal(err)
		}
		total++
		if got.Len() > 0 {
			nonEmpty++
		}
	}
	if nonEmpty*10 < total*8 {
		t.Fatalf("only %d of %d check queries select rows", nonEmpty, total)
	}
}

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n             int
		tail          time.Duration // latencies are 1..n ms
		beyond        int
		pct           float64
		p50           time.Duration
		wantNoSamples bool
	}{
		{n: 0, wantNoSamples: true},
		{n: 1, tail: 1, beyond: 0, pct: 100, p50: 1},
		{n: 2, tail: 2, beyond: 0, pct: 100, p50: 1},
		{n: 10, tail: 10, beyond: 0, pct: 100, p50: 5},
		{n: 11, tail: 1, beyond: 10, pct: 100.0 / 11, p50: 6},
		{n: 12, tail: 2, beyond: 10, pct: 100.0 * 2 / 12, p50: 6},
		{n: 100, tail: 90, beyond: 10, pct: 90, p50: 50},
		{n: 1000, tail: 990, beyond: 10, pct: 99, p50: 500},
	} {
		samples := make([]sample[struct{}], tc.n)
		for i := range samples {
			// Reverse order: summarize must sort.
			samples[i].latency = time.Duration(tc.n-i) * time.Millisecond
		}
		// A failed request never counts as a latency sample.
		samples = append(samples, sample[struct{}]{latency: time.Hour, err: fmt.Errorf("failed")})
		st := summarize(samples)
		if st.n != tc.n {
			t.Errorf("n=%d: counted %d samples", tc.n, st.n)
		}
		if tc.wantNoSamples {
			if st.tail != 0 || st.p50 != 0 {
				t.Errorf("n=0: tail %v p50 %v, want 0", st.tail, st.p50)
			}
			continue
		}
		if st.tail != tc.tail*time.Millisecond || st.beyond != tc.beyond || st.tailPct != tc.pct || st.p50 != tc.p50*time.Millisecond {
			t.Errorf("n=%d: tail %v beyond %d pct %v p50 %v, want %v %d %v %v",
				tc.n, st.tail, st.beyond, st.tailPct, st.p50, tc.tail*time.Millisecond, tc.beyond, tc.pct, tc.p50*time.Millisecond)
		}
	}
}

func TestClosedLoopEndsOnRoundBoundary(t *testing.T) {
	var calls atomic.Int64
	res := runClosedLoop(2, 3, 20*time.Millisecond, func(i int) int { return i },
		func(int) (int, error) {
			calls.Add(1)
			time.Sleep(time.Millisecond)
			return 0, nil
		}, func(o int) int { return o })
	if n := len(res.samples); n == 0 || n%3 != 0 || int64(n) != calls.Load() {
		t.Fatalf("%d samples from %d calls, want a positive multiple of 3", n, calls.Load())
	}
	// A zero measuring time still runs one whole round.
	res = runClosedLoop(2, 5, 0, func(i int) int { return i },
		func(int) (int, error) { return 0, nil }, func(o int) int { return o })
	if len(res.samples) != 5 {
		t.Fatalf("%d samples, want one round of 5", len(res.samples))
	}
}

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRe.MatchString(name) {
			t.Errorf("%s name %q is not [A-Za-z0-9_.-]+ (at most 64, starting alphanumeric)", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloadSpecs {
		check("workload", w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.Name)
		}
	}
	var hasSetup bool
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		check("metric", m.Name)
		if !unitRe.MatchString(m.Unit) {
			t.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Errorf("no setup_s metric in seconds, lower better")
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > endToEnd[0].Bound {
			t.Errorf("metric %s: bound %v, want in (0, setup_s bound %v]", m.Name, m.Bound, endToEnd[0].Bound)
		}
	}
}

// TestSpecFiles keeps BENCHMARK.json and spec.json equal to what
// spec.go describes; run with -update to rewrite them.
func TestSpecFiles(t *testing.T) {
	for path, want := range map[string][]byte{"../BENCHMARK.json": benchmarkFile(), "spec.json": specFile()} {
		if *update {
			if err := os.WriteFile(path, want, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s is out of date with spec.go; run go test -run TestSpecFiles -update", path)
		}
	}
}

func TestDecomposeIsExact(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{id: 0, parent: -1, req: 1, name: spanService, start: 0, end: 10 * ms},
		{id: 1, parent: -1, req: 1, name: spanEncode, start: 10 * ms, end: 11 * ms},
		{id: 2, parent: -1, req: 1, name: spanReplay, start: 11 * ms, end: 30 * ms},
		{id: 3, parent: 2, req: 1, name: "core.canon", start: 11 * ms, end: 12 * ms},
		{id: 4, parent: 2, req: 1, name: "chase.index", start: 12 * ms, end: 13 * ms},
		{id: 5, parent: 2, req: 1, name: "chase.run", start: 13 * ms, end: 15 * ms},
		{id: 6, parent: 2, req: 1, name: "rank", start: 15 * ms, end: 19 * ms, allocs: 7},
		{id: 7, parent: -1, req: 2, name: spanService, start: 40 * ms, end: 41 * ms},
	}
	rt, err := decompose(spans, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rt.service != 10*ms || rt.encode != ms || rt.self["chase"] != 3*ms || rt.self["rank"] != 4*ms || rt.overhead != 2*ms || rt.allocs["rank"] != 7 {
		t.Fatalf("decomposition %+v", rt)
	}
	bad := append([]span(nil), spans...)
	bad[6].end = 31 * ms // outside the replay span
	if _, err := decompose(bad, 1); err == nil {
		t.Errorf("a layer span outside its parent was accepted")
	}
	bad = append([]span(nil), spans...)
	bad[3].name = "mystery"
	if _, err := decompose(bad, 1); err == nil {
		t.Errorf("a span of no layer was accepted")
	}
	if _, err := decompose(spans, 2); err == nil {
		t.Errorf("a request without replay span was accepted")
	}
}

// TestSmoke runs every workload briefly, small, with tracing: every
// output check and the traced decomposition must pass, and every named
// metric must be reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take about half a minute")
	}
	for _, ws := range workloadSpecs {
		t.Run(ws.Name, func(t *testing.T) {
			var out bytes.Buffer
			spans := filepath.Join(t.TempDir(), "spans.jsonl")
			rep, err := run(context.Background(), config{
				workload: ws.Name, seed: 3, seconds: time.Millisecond, trace: true, setups: 1, factRows: 20_000, spans: spans,
			}, &out)
			if err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			if !rep.result.Correct || rep.result.Failed != 0 || rep.result.Attempted < 1 {
				t.Fatalf("result %+v\n%s", rep.result, out.String())
			}
			for _, m := range endToEnd {
				if _, ok := rep.e2e[m.Name]; !ok {
					t.Errorf("end-to-end metric %s missing", m.Name)
				}
			}
			for _, m := range perLayer {
				if _, ok := rep.layer[m.Name]; !ok {
					t.Errorf("per-layer metric %s missing", m.Name)
				}
			}
			if !strings.Contains(out.String(), "layer shares") {
				t.Errorf("no layer breakdown printed:\n%s", out.String())
			}
			if b, err := os.ReadFile(spans); err != nil || !bytes.Contains(b, []byte(`"name":"replay"`)) {
				t.Errorf("spans not written (%v)", err)
			}
		})
	}
}
