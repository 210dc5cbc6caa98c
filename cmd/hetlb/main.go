// Command hetlb is the command-line front end of the library. Subcommands:
//
//	sim        run a decentralized balancing protocol on a generated system
//	markov     compute the stationary makespan distribution of the
//	           one-cluster model (Section VII.A)
//	worksteal  simulate work stealing, including the Theorem 1 trap
//	solve      read a cost matrix (CSV, one machine per line) on stdin and
//	           solve it exactly (small instances) and with the baselines
//	figures    regenerate the paper's evaluation (tables + figures) through
//	           the parallel replication harness
//	chaos      sweep message loss and machine churn against convergence of
//	           the message-passing runtime (fault-injection study)
//	explain    diagnose a finished run from its span trace and convergence
//	           timeline (stalls, fault attribution, session latencies)
//
// Run `hetlb <subcommand> -h` for flags.
package main

import (
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "sim":
		err = cmdSim(args)
	case "markov":
		err = cmdMarkov(args)
	case "worksteal":
		err = cmdWorksteal(args)
	case "explore":
		err = cmdExplore(args)
	case "solve":
		err = cmdSolve(args)
	case "figures":
		err = cmdFigures(args)
	case "chaos":
		err = cmdChaos(args)
	case "explain":
		err = cmdExplain(args)
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "hetlb: unknown subcommand %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hetlb:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: hetlb <subcommand> [flags]

subcommands:
  sim        run DLB2C / OJTB / MJTB / homogeneous balancing on a generated system
  markov     stationary makespan distribution of the one-cluster Markov model
  worksteal  simulate the work-stealing baseline (Algorithm 1)
  explore    enumerate reachable schedules / prove non-convergence (Prop. 8)
  solve      exactly solve a small cost matrix read from stdin
  figures    regenerate the paper's evaluation (Tables I/II, Figures 1-5,
             extensions) through the parallel replication harness
  chaos      sweep message loss and machine crashes against convergence time
             and final Cmax of the crash-tolerant message-passing runtime
  explain    diagnose a finished run from its span trace and timeline:
             convergence stalls, per-session fault attribution, hottest
             pairs, p50/p99 session latencies

sim, worksteal, chaos and figures accept observability flags: --metrics-out
(Prometheus text, or JSON with --metrics-json), --span-out (causal span
trace JSONL), --trace-out (the same span trace as Chrome trace_event JSON),
--timeline-out (convergence timeline, CSV or --timeline-format=json),
--pprof <addr>, and --debug-addr <addr> (live /metrics, /timeline.json,
/spans.jsonl and /debug/pprof/ for the run's duration).
figures and chaos additionally accept --parallel (worker pool size; the
results — and the span trace — are identical for every value) and --timeout.

examples:
  hetlb sim -proto dlb2c -m1 64 -m2 32 -jobs 768 -steps 480
  hetlb sim -proto dlb2c --metrics-out=- --trace-out=trace.json
  hetlb sim -proto dlb2c --span-out=spans.jsonl --timeline-out=timeline.csv
  hetlb explain -spans spans.jsonl -timeline timeline.csv
  hetlb markov -m 6 -pmax 4
  hetlb worksteal -trap 1000
  hetlb figures --parallel 8 --metrics-out=-
  hetlb figures -paper -exp fig3 --parallel 8 --timeout 10m
  hetlb chaos -loss 0,0.1,0.3 -crashes 0,4 --parallel 8 --span-out=spans.jsonl
  echo '1,2,3
4,5,6' | hetlb solve
`)
}
