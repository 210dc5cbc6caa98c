package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"hetlb/internal/evaluation"
	"hetlb/internal/harness"
)

// cmdFigures regenerates the paper's evaluation through the parallel
// replication harness. By default it runs the scaled-down configurations
// (seconds, suitable for a smoke check); -paper switches to the full-scale
// systems of the paper and -full additionally includes the most expensive
// ones. The run is deterministic for a fixed -seed no matter what -parallel
// is set to.
func cmdFigures(args []string) error {
	fs := flag.NewFlagSet("figures", flag.ExitOnError)
	exp := fs.String("exp", "all", "which experiment to run (all, tableI, tableII, fig1, fig2a, fig2b, fig3, fig4, fig5, extk, extdyn, residual)")
	out := fs.String("out", "figures", "output directory for CSV files (\"\" disables CSV output)")
	paper := fs.Bool("paper", false, "run the paper-scale configurations instead of the scaled-down ones")
	full := fs.Bool("full", false, "with -paper: include the most expensive configurations too")
	seed := fs.Uint64("seed", 1, "base random seed")
	parallel := fs.Int("parallel", 0, "replication worker pool size (0 = GOMAXPROCS)")
	timeout := fs.Duration("timeout", 0, "abort the run after this wall time (0 = no limit)")
	progress := fs.Bool("progress", false, "report replication progress per experiment on stderr")
	var obs obsFlags
	obs.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sinks, err := obs.setup()
	if err != nil {
		return err
	}
	if obs.timelineOut != "" {
		fmt.Fprintln(os.Stderr, "figures: a sweep has no single convergence trajectory; the timeline output will be empty (use `hetlb sim --timeline-out` for one run)")
	}

	// Ctrl-C cancels the harness cleanly: completed replications keep their
	// results, the metrics/trace outputs are still flushed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cfg := evaluation.Config{
		OutDir:  *out,
		Reduced: !*paper,
		Full:    *full,
		Seed:    *seed,
		Harness: harness.Options{
			Parallelism: *parallel,
			Timeout:     *timeout,
			Context:     ctx,
			Metrics:     sinks.Metrics,
			Spans:       sinks.Spans,
		},
	}
	if *progress {
		cfg.Harness.OnProgress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rreplications: %d/%d", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	start := time.Now()
	runErr := evaluation.Run(cfg, *exp)
	if runErr == nil {
		fmt.Printf("evaluation complete in %v\n", time.Since(start).Round(time.Millisecond))
	}
	if err := obs.flush(sinks); err != nil {
		return err
	}
	return runErr
}
