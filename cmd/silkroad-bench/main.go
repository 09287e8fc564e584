// Command silkroad-bench regenerates the tables and figures of the
// SilkRoad paper (SIGCOMM 2017) from this repository's implementation.
//
// Usage:
//
//	silkroad-bench                 # run every experiment at default scale
//	silkroad-bench -run fig16      # one experiment
//	silkroad-bench -list           # list experiment ids
//	silkroad-bench -scale 2 -seed 7
//
// Scale stretches simulation lengths and sample counts; shapes are stable
// across scales (see EXPERIMENTS.md for the reduced-scale defaults).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	run := flag.String("run", "all", "experiment id to run, or 'all'")
	scale := flag.Float64("scale", 1.0, "run-time scale knob (>=0.05)")
	seed := flag.Int64("seed", 1, "master random seed")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-8s %s\n", r.ID, r.Desc)
		}
		return
	}
	if *scale < 0.05 {
		fmt.Fprintln(os.Stderr, "silkroad-bench: scale must be >= 0.05")
		os.Exit(2)
	}

	var runners []experiments.Runner
	if *run == "all" {
		runners = experiments.All()
	} else {
		for _, id := range strings.Split(*run, ",") {
			r, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "silkroad-bench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			runners = append(runners, r)
		}
	}

	for _, r := range runners {
		start := time.Now()
		rep, err := r.Run(*scale, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "silkroad-bench: %s: %v\n", r.ID, err)
			os.Exit(1)
		}
		fmt.Print(rep.String())
		if rep.ArtifactName != "" {
			if err := os.WriteFile(rep.ArtifactName, rep.Artifact, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "silkroad-bench: %s: %v\n", r.ID, err)
				os.Exit(1)
			}
			fmt.Printf("(wrote %s)\n", rep.ArtifactName)
		}
		fmt.Printf("(%s took %.1fs)\n\n", r.ID, time.Since(start).Seconds())
	}
}
