// Mediator: the information-integration motivation of §1. A mediator
// exposes a logical schema over two sources: one source only answers
// lookups by ISBN (a binding-pattern capability modeled as a dictionary),
// the other publishes a materialized view join. The chase & backchase
// rewrites the mediated query to respect the source capabilities.
package main

import (
	"context"
	"fmt"
	"log"

	"cnb/internal/core"
	"cnb/internal/cost"
	"cnb/internal/engine"
	"cnb/internal/instance"
	"cnb/internal/optimizer"
	"cnb/internal/physical"
	"cnb/internal/schema"
	"cnb/internal/types"
)

func main() {
	// Logical schema: Books(ISBN, Title, Year) and Reviews(ISBN, Score).
	logical := schema.New("mediator")
	logical.MustAddElement("Books", types.SetOf(types.StructOf(
		types.F("ISBN", types.StringT()),
		types.F("Title", types.StringT()),
		types.F("Year", types.Int()),
	)), "logical books")
	logical.MustAddElement("Reviews", types.SetOf(types.StructOf(
		types.F("ISBN", types.StringT()),
		types.F("Score", types.Int()),
	)), "logical reviews")

	// Source capabilities:
	// - Source 1 answers only ISBN lookups on books: a primary index
	//   (dictionary) capability, not a scannable relation.
	// - Source 2 publishes reviews directly and a materialized join view
	//   of recent reviewed books.
	design := physical.NewDesign(logical).
		Add(physical.DirectStorage{Name: "Reviews"}).
		Add(physical.PrimaryIndex{Name: "BookByISBN", Relation: "Books", Key: "ISBN"}).
		Add(physical.View{
			Name: "ReviewedBooks",
			Def: &core.Query{
				Out: core.Struct(
					core.SF("ISBN", core.Prj(core.V("b"), "ISBN")),
					core.SF("Title", core.Prj(core.V("b"), "Title")),
				),
				Bindings: []core.Binding{
					{Var: "b", Range: core.Name("Books")},
					{Var: "r", Range: core.Name("Reviews")},
				},
				Conds: []core.Cond{
					{L: core.Prj(core.V("b"), "ISBN"), R: core.Prj(core.V("r"), "ISBN")},
				},
			},
		})
	phys, deps, _, err := design.Build()
	if err != nil {
		log.Fatal(err)
	}

	// Mediated query: titles and scores of reviewed books.
	q := &core.Query{
		Out: core.Struct(
			core.SF("Title", core.Prj(core.V("b"), "Title")),
			core.SF("Score", core.Prj(core.V("r"), "Score")),
		),
		Bindings: []core.Binding{
			{Var: "b", Range: core.Name("Books")},
			{Var: "r", Range: core.Name("Reviews")},
		},
		Conds: []core.Cond{
			{L: core.Prj(core.V("b"), "ISBN"), R: core.Prj(core.V("r"), "ISBN")},
		},
	}
	fmt.Println("mediated query (logical):")
	fmt.Println(q)

	// Data.
	in := instance.NewInstance()
	books := []struct {
		isbn, title string
		year        int64
	}{
		{"111", "Foundations of Databases", 1995},
		{"222", "Principles of DDB Systems", 1999},
		{"333", "The Art of Computer Programming", 1968},
	}
	bookDict := instance.NewDict()
	reviewSet := instance.NewSet()
	viewSet := instance.NewSet()
	for i, b := range books {
		row := instance.StructOf("ISBN", instance.Str(b.isbn),
			"Title", instance.Str(b.title), "Year", instance.Int(b.year))
		bookDict.Put(instance.Str(b.isbn), row)
		if i < 2 { // only the first two are reviewed
			reviewSet.Add(instance.StructOf("ISBN", instance.Str(b.isbn), "Score", instance.Int(int64(3+i))))
			viewSet.Add(instance.StructOf("ISBN", instance.Str(b.isbn), "Title", instance.Str(b.title)))
		}
	}
	in.Bind("BookByISBN", bookDict)
	in.Bind("Reviews", reviewSet)
	in.Bind("ReviewedBooks", viewSet)

	// Optimize against the capabilities: the plan may only use the
	// physical names (the logical Books relation is not scannable!).
	res, err := optimizer.Optimize(q, optimizer.Options{
		Deps:          deps,
		PhysicalNames: phys.NameSet(),
		Stats:         cost.FromInstance(in),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbest capability-respecting plan (est. cost %.1f):\n%s\n",
		res.Best.Cost, res.Best.Query)

	out, err := engine.StreamExecute(context.Background(), res.Best.Query, in, engine.StreamOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nanswer: %s\n", out)
}
