// Command gisbench regenerates the paper's evaluation artifacts: every
// figure (F1–F7) reproduced behaviorally and every characterization
// benchmark (B1–B9) from DESIGN.md's experiment index. The end-to-end
// interaction benchmark is a separate program: see bench/README.md.
//
// Usage:
//
//	gisbench -list              # show the experiment registry
//	gisbench -exp F7            # run one experiment
//	gisbench -exp F1,B2,B6      # run several
//	gisbench -exp all           # run everything
//	gisbench -exp all -quick    # reduced sizes (CI)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	var (
		expFlag = flag.String("exp", "", "experiment id(s), comma-separated, or 'all'")
		list    = flag.Bool("list", false, "list experiments")
		quick   = flag.Bool("quick", false, "reduced sizes for fast runs")
		metrics = flag.Bool("metrics", false, "print the metrics delta after each experiment")
	)
	flag.Parse()

	if *list || *expFlag == "" {
		fmt.Println("experiments:")
		for _, e := range experiments.Registry() {
			fmt.Printf("  %-3s %-58s (%s)\n", e.ID, e.Title, e.Paper)
		}
		if *expFlag == "" {
			fmt.Println("\nrun with -exp <id>[,<id>...] or -exp all")
		}
		return
	}

	var ids []string
	if *expFlag == "all" {
		for _, e := range experiments.Registry() {
			ids = append(ids, e.ID)
		}
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}
	failed := false
	for i, id := range ids {
		e, ok := experiments.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "gisbench: unknown experiment %q (use -list)\n", id)
			failed = true
			continue
		}
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("============ %s: %s [%s] ============\n\n", e.ID, e.Title, e.Paper)
		before := obs.Default().Snapshot()
		if err := e.Run(os.Stdout, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "gisbench: %s failed: %v\n", e.ID, err)
			failed = true
		}
		if *metrics {
			fmt.Printf("\n---- %s metrics delta ----\n", e.ID)
			delta := obs.Default().Snapshot().Sub(before)
			if err := delta.WriteText(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "gisbench: metrics delta: %v\n", err)
				failed = true
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}
