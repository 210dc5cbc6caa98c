package main

import (
	"flag"
	"fmt"

	"hetlb"
	"hetlb/internal/central"
	"hetlb/internal/core"
	"hetlb/internal/rng"
	"hetlb/internal/workload"
)

// cmdSim generates a synthetic system and runs a decentralized protocol on
// it, reporting the final makespan against the relevant bounds.
func cmdSim(args []string) error {
	fs := flag.NewFlagSet("sim", flag.ExitOnError)
	proto := fs.String("proto", "dlb2c", "protocol: dlb2c, ojtb, mjtb, homog")
	m1 := fs.Int("m1", 64, "machines in cluster 0 (or the whole cluster for homog/ojtb/mjtb)")
	m2 := fs.Int("m2", 32, "machines in cluster 1 (dlb2c only)")
	jobs := fs.Int("jobs", 768, "number of jobs")
	types := fs.Int("types", 4, "job types (mjtb only)")
	lo := fs.Int64("lo", 1, "minimum job cost")
	hi := fs.Int64("hi", 1000, "maximum job cost")
	steps := fs.Int("steps", 0, "pairwise exchange budget (default 5 per machine)")
	seed := fs.Uint64("seed", 1, "random seed")
	shards := fs.Int("shards", 0, "run the sharded epoch engine with this many parallel shards; -1 picks one shard per core (results are identical for any shard count)")
	stable := fs.Bool("stable", false, "stop early at a verified stable schedule")
	var ob obsFlags
	ob.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	gen := rng.New(*seed)
	sinks, err := ob.setup()
	if err != nil {
		return err
	}

	opt := hetlb.RunOptions{
		Seed:            gen.Uint64(),
		Shards:          *shards,
		DetectStability: *stable,
		Metrics:         sinks.Metrics,
		Spans:           sinks.Spans,
		Timeline:        sinks.Timeline,
	}

	switch *proto {
	case "dlb2c":
		tc := workload.UniformTwoCluster(gen, *m1, *m2, *jobs, *lo, *hi)
		opt.MaxExchanges = budget(*steps, *m1+*m2)
		initial := hetlb.RandomInitial(tc, gen.Uint64())
		fmt.Printf("initial Cmax: %d\n", initial.Makespan())
		res, err := hetlb.DLB2C(tc, initial, opt)
		if err != nil {
			return err
		}
		cent := central.RunCLB2C(tc).Makespan()
		lb := hetlb.TwoClusterLowerBound(tc)
		report(res, fmt.Sprintf("CLB2C (centralized 2-approx): %d; fractional LB: %.1f; Cmax/LB: %.3f",
			cent, lb, float64(res.Makespan)/lb))
	case "homog":
		id := workload.UniformIdentical(gen, *m1, *jobs, *lo, *hi)
		opt.MaxExchanges = budget(*steps, *m1)
		initial := hetlb.RandomInitial(id, gen.Uint64())
		fmt.Printf("initial Cmax: %d\n", initial.Makespan())
		res, err := hetlb.HomogeneousBalance(id, initial, opt)
		if err != nil {
			return err
		}
		lb := core.IdenticalLowerBound(id)
		report(res, fmt.Sprintf("LB: %d; Cmax/LB: %.3f", lb, float64(res.Makespan)/float64(lb)))
	case "ojtb":
		p := make([][]core.Cost, *m1)
		for i := range p {
			p[i] = []core.Cost{gen.IntRange(*lo, *hi)}
		}
		ty, err := core.NewTyped(p, make([]int, *jobs))
		if err != nil {
			return err
		}
		opt.MaxExchanges = budget(*steps, *m1)
		initial := hetlb.RandomInitial(ty, gen.Uint64())
		fmt.Printf("initial Cmax: %d\n", initial.Makespan())
		res, err := hetlb.OJTB(ty, initial, opt)
		if err != nil {
			return err
		}
		report(res, "one job type: converges to the optimum (Lemma 4)")
	case "mjtb":
		ty := workload.UniformTyped(gen, *m1, *jobs, *types, *lo, *hi)
		opt.MaxExchanges = budget(*steps, *m1)
		initial := hetlb.RandomInitial(ty, gen.Uint64())
		fmt.Printf("initial Cmax: %d\n", initial.Makespan())
		res, err := hetlb.MJTB(ty, initial, opt)
		if err != nil {
			return err
		}
		report(res, fmt.Sprintf("k=%d types: stable schedules are k-approximations (Theorem 5)", *types))
	default:
		return fmt.Errorf("unknown protocol %q", *proto)
	}
	return ob.flush(sinks)
}

func budget(steps, machines int) int {
	if steps > 0 {
		return steps
	}
	return 5 * machines
}

func report(res hetlb.Result, extra string) {
	fmt.Printf("final Cmax: %d after %d exchanges (converged: %v)\n",
		res.Makespan, res.Exchanges, res.Converged)
	fmt.Println(extra)
}
