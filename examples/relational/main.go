// Relational: the two §4 scenarios. First the index-only access path for
// a conjunctive selection over R(A,B,C) with secondary indexes SA and SB;
// then the materialized-view + index navigation join for R⋈S with
// V = π_A(R⋈S), IR and IS.
package main

import (
	"context"
	"fmt"
	"log"

	"cnb/internal/cost"
	"cnb/internal/engine"
	"cnb/internal/eval"
	"cnb/internal/optimizer"
	"cnb/internal/workload"
)

func main() {
	indexOnly()
	viewIndex()
}

func indexOnly() {
	fmt.Println("=== §4.1: index-only access path ===")
	sc, err := workload.NewIndexOnly(5, 9)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query:\n%s\n\n", sc.Q)
	in := sc.Generate(5000, 50, 50, 1)
	res, err := optimizer.Optimize(sc.Q, optimizer.Options{
		Deps:  sc.Deps,
		Stats: cost.FromInstance(in),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("best plan (est. cost %.1f):\n%s\n\n", res.Best.Cost, res.Best.Query)
	got, err := engine.StreamExecute(context.Background(), res.Best.Query, in, engine.StreamOptions{})
	if err != nil {
		log.Fatal(err)
	}
	want, _ := eval.Query(sc.Q, in)
	fmt.Printf("rows: %d; matches naive evaluation: %v\n\n", got.Len(), got.Equal(want))
}

func viewIndex() {
	fmt.Println("=== §4.2: materialized view + index navigation ===")
	sc, err := workload.NewViewIndex()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query:\n%s\n\n", sc.Q)
	// Selective join: V is much smaller than R and S, so the V+index
	// navigation plan wins, exactly as §4 argues.
	in := sc.Generate(3000, 3000, 8000, 2)
	res, err := optimizer.Optimize(sc.Q, optimizer.Options{
		Deps:  sc.Deps,
		Stats: cost.FromInstance(in),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top candidates:")
	for i, c := range res.Candidates {
		if i >= 5 {
			break
		}
		fmt.Printf("  %d. cost %8.1f  uses %v\n", i+1, c.Cost, c.Query.SortedNames())
	}
	fmt.Printf("\nbest plan (est. cost %.1f):\n%s\n\n", res.Best.Cost, res.Best.Query)
	got, err := engine.StreamExecute(context.Background(), res.Best.Query, in, engine.StreamOptions{})
	if err != nil {
		log.Fatal(err)
	}
	want, _ := eval.Query(sc.Q, in)
	fmt.Printf("rows: %d; matches naive evaluation: %v\n", got.Len(), got.Equal(want))
}
