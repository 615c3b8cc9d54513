package main

import (
	"flag"
	"fmt"
	"io"

	"churnreg/internal/harness"
)

// experiments regenerates the experiment tables, one experiment per
// figure, lemma, or theorem of the paper (internal/harness.All is the
// index), deterministically in the seed.
func experiments(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("regsim experiments", flag.ContinueOnError)
	seed := fs.Uint64("seed", 42, "deterministic seed for every experiment")
	only := fs.String("only", "", "run a single experiment by id (e.g. E4)")
	list := fs.Bool("list", false, "list experiments and exit")
	markdown := fs.Bool("markdown", false, "render tables as GitHub markdown")
	if err := parse(fs, args); err != nil {
		return err
	}
	exps := harness.All()
	if *list {
		for _, e := range exps {
			fmt.Fprintf(w, "%-4s %s\n", e.ID, e.Title)
		}
		return nil
	}
	ran := 0
	for _, e := range exps {
		if *only != "" && e.ID != *only {
			continue
		}
		fmt.Fprintf(w, "## %s — %s (seed %d)\n\n", e.ID, e.Title, *seed)
		for _, tb := range e.Run(*seed) {
			if *markdown {
				fmt.Fprintln(w, tb.RenderMarkdown())
			} else {
				fmt.Fprintln(w, tb.Render())
			}
		}
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no experiment matches -only=%q (try -list)", *only)
	}
	return nil
}
