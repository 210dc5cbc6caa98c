package worksteal

import (
	"testing"

	"hetlb/internal/central"
	"hetlb/internal/core"
	"hetlb/internal/exact"
	"hetlb/internal/obs"
	"hetlb/internal/obs/span"
	"hetlb/internal/rng"
	"hetlb/internal/workload"
)

func TestTheorem1Trap(t *testing.T) {
	// Table I: from the circled distribution, no steal can happen before
	// time n, the run finishes at exactly n+1 under the charitable
	// zero-latency semantics, and OPT is 2 — an unbounded ratio in n.
	for _, n := range []core.Cost{10, 100, 1000} {
		d, init := workload.WorkStealingTrap(n)
		for seed := uint64(0); seed < 8; seed++ {
			sim, err := New(d, init, Config{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			st := sim.Run()
			if st.FirstStealTime != int64(n) {
				t.Fatalf("n=%d seed=%d: first steal at %d, want %d", n, seed, st.FirstStealTime, n)
			}
			if st.Makespan != int64(n)+1 {
				t.Fatalf("n=%d seed=%d: makespan %d, want %d", n, seed, st.Makespan, int64(n)+1)
			}
		}
		if opt := exact.Solve(d).Opt; opt != 2 {
			t.Fatalf("trap OPT = %d, want 2", opt)
		}
	}
}

func TestAllJobsCompleteExactlyOnce(t *testing.T) {
	gen := rng.New(1)
	d := workload.UniformDense(gen, 4, 40, 1, 30)
	init := core.RoundRobin(d)
	sim, err := New(d, init, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	st := sim.Run()
	if len(st.Completion) != 40 {
		t.Fatal("completion vector wrong size")
	}
	for j, c := range st.Completion {
		if c <= 0 {
			t.Fatalf("job %d has completion time %d", j, c)
		}
		if c > st.Makespan {
			t.Fatalf("job %d completes after the makespan", j)
		}
		if e := st.ExecutedOn[j]; e < 0 || e >= 4 {
			t.Fatalf("job %d executed on invalid machine %d", j, e)
		}
	}
}

func TestMakespanAtLeastCriticalWork(t *testing.T) {
	// Work stealing cannot beat the per-job lower bound max_j min_i p_ij,
	// nor can all machines together do more than the total work implies.
	gen := rng.New(2)
	for iter := 0; iter < 20; iter++ {
		d := workload.UniformDense(gen, 3, 12, 1, 50)
		init := core.RoundRobin(d)
		sim, err := New(d, init, Config{Seed: gen.Uint64()})
		if err != nil {
			t.Fatal(err)
		}
		st := sim.Run()
		if st.Makespan < int64(core.LowerBound(d)) {
			t.Fatalf("makespan %d below the instance lower bound %d", st.Makespan, core.LowerBound(d))
		}
	}
}

func TestIdenticalMachinesReasonableMakespan(t *testing.T) {
	// On identical machines with zero steal latency, work stealing is a
	// decentralized List Scheduling; it should be within Graham's factor
	// 2 of the lower bound.
	gen := rng.New(3)
	for iter := 0; iter < 15; iter++ {
		id := workload.UniformIdentical(gen, 6, 60, 1, 100)
		init := core.AllOnMachine(id, 0)
		sim, err := New(id, init, Config{Seed: gen.Uint64()})
		if err != nil {
			t.Fatal(err)
		}
		st := sim.Run()
		lb := core.IdenticalLowerBound(id)
		if st.Makespan > 2*int64(lb) {
			t.Fatalf("makespan %d > 2×LB %d on identical machines", st.Makespan, lb)
		}
		if st.Steals == 0 {
			t.Fatal("no steals from an all-on-one start")
		}
	}
}

func TestStealLatencySlowsRun(t *testing.T) {
	gen := rng.New(4)
	id := workload.UniformIdentical(gen, 4, 40, 1, 20)
	init := core.AllOnMachine(id, 0)
	fast, _ := New(id, init, Config{Seed: 5})
	slow, _ := New(id, init, Config{Seed: 5, StealLatency: 50})
	fs := fast.Run()
	ss := slow.Run()
	if ss.Makespan < fs.Makespan {
		t.Fatalf("latency 50 finished earlier (%d) than latency 0 (%d)", ss.Makespan, fs.Makespan)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	gen := rng.New(5)
	d := workload.UniformDense(gen, 4, 30, 1, 40)
	init := core.RoundRobin(d)
	a, _ := New(d, init, Config{Seed: 11})
	b, _ := New(d, init, Config{Seed: 11})
	sa, sb := a.Run(), b.Run()
	if sa.Makespan != sb.Makespan || sa.Steals != sb.Steals || sa.Probes != sb.Probes {
		t.Fatal("same seed produced different runs")
	}
}

func TestRejectsIncompleteAssignment(t *testing.T) {
	d := core.MustDense([][]core.Cost{{1, 2}})
	a := core.NewAssignment(d)
	a.Assign(0, 0)
	if _, err := New(d, a, Config{}); err == nil {
		t.Fatal("incomplete assignment accepted")
	}
}

func TestRejectsNegativeLatency(t *testing.T) {
	d := core.MustDense([][]core.Cost{{1}})
	a := core.AllOnMachine(d, 0)
	if _, err := New(d, a, Config{StealLatency: -1}); err == nil {
		t.Fatal("negative latency accepted")
	}
}

func TestEmptyInstance(t *testing.T) {
	id, _ := core.NewIdentical(3, nil)
	a := core.NewAssignment(id)
	sim, err := New(id, a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	st := sim.Run()
	if st.Makespan != 0 || st.Steals != 0 {
		t.Fatalf("empty run: %+v", st)
	}
}

func TestSingleMachineNoSteals(t *testing.T) {
	id, _ := core.NewIdentical(1, []core.Cost{3, 4, 5})
	a := core.AllOnMachine(id, 0)
	sim, _ := New(id, a, Config{Seed: 1})
	st := sim.Run()
	if st.Makespan != 12 {
		t.Fatalf("makespan %d, want 12", st.Makespan)
	}
	if st.Steals != 0 || st.JobsMoved != 0 {
		t.Fatal("steals on a single machine")
	}
}

func TestGoodInitialDistributionFewMoves(t *testing.T) {
	// Starting from the CLB2C schedule on a two-cluster instance, work
	// stealing should need few moves and finish near the schedule's
	// makespan (it cannot finish later than a constant factor of it under
	// zero latency; assert the weak sanity bound of 2×).
	gen := rng.New(6)
	tc := workload.UniformTwoCluster(gen, 4, 4, 64, 1, 100)
	init := central.RunCLB2C(tc)
	sim, _ := New(tc, init, Config{Seed: 9})
	st := sim.Run()
	if st.Makespan > 2*int64(init.Makespan()) {
		t.Fatalf("work stealing worsened a good schedule: %d vs %d", st.Makespan, init.Makespan())
	}
}

func BenchmarkWorkStealPaperScale(b *testing.B) {
	gen := rng.New(7)
	tc := workload.UniformTwoCluster(gen, 64, 32, 768, 1, 1000)
	init := core.RoundRobin(tc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := New(tc, init, Config{Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		sim.Run()
	}
}

func TestStealOnePolicy(t *testing.T) {
	// Steal-one must still complete everything and typically needs more
	// steals than steal-half from a skewed start.
	gen := rng.New(21)
	id := workload.UniformIdentical(gen, 6, 60, 1, 50)
	init := core.AllOnMachine(id, 0)
	half, _ := New(id, init, Config{Seed: 3})
	one, _ := New(id, init, Config{Seed: 3, Policy: StealOne})
	sh := half.Run()
	so := one.Run()
	if so.Steals <= sh.Steals {
		t.Fatalf("steal-one used %d steals, steal-half %d", so.Steals, sh.Steals)
	}
	for j, c := range so.Completion {
		if c <= 0 {
			t.Fatalf("steal-one lost job %d", j)
		}
	}
	// Both stay within the Graham factor on identical machines.
	lb := core.IdenticalLowerBound(id)
	if so.Makespan > 2*int64(lb) {
		t.Fatalf("steal-one makespan %d > 2×LB %d", so.Makespan, lb)
	}
}

func TestStealOneTrapStillDelayed(t *testing.T) {
	// Theorem 1 does not depend on the steal amount: the first steal is
	// still blocked until time n.
	d, init := workload.WorkStealingTrap(200)
	sim, _ := New(d, init, Config{Seed: 1, Policy: StealOne})
	st := sim.Run()
	if st.FirstStealTime != 200 {
		t.Fatalf("first steal at %d, want 200", st.FirstStealTime)
	}
	if st.Makespan != 201 {
		t.Fatalf("makespan %d, want 201", st.Makespan)
	}
}

func BenchmarkWorkStealStealOne(b *testing.B) {
	gen := rng.New(22)
	tc := workload.UniformTwoCluster(gen, 64, 32, 768, 1, 1000)
	init := core.RoundRobin(tc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := New(tc, init, Config{Seed: uint64(i), Policy: StealOne})
		if err != nil {
			b.Fatal(err)
		}
		sim.Run()
	}
}

func TestObsMetricsMatchStats(t *testing.T) {
	// The obs counters must agree with the Stats the simulator already
	// reports, and the span trace must carry one session span per steal.
	gen := rng.New(61)
	tc := workload.UniformTwoCluster(gen, 8, 4, 96, 1, 100)
	init := core.AllOnMachine(tc, 0)
	reg := obs.NewRegistry()
	met := NewMetrics(reg, tc.NumMachines())
	rec := span.NewRecorder(1 << 16)
	sim, err := New(tc, init, Config{Seed: 62, StealLatency: 3, Metrics: met, Spans: rec})
	if err != nil {
		t.Fatal(err)
	}
	st := sim.Run()

	if got := met.Probes.Value(); got != int64(st.Probes) {
		t.Fatalf("worksteal_probes_total = %d, want %d", got, st.Probes)
	}
	if got := met.Steals.Value(); got != int64(st.Steals) {
		t.Fatalf("worksteal_steals_total = %d, want %d", got, st.Steals)
	}
	if met.Steals.Value() == 0 {
		t.Fatal("instance produced no steals; test is vacuous")
	}
	if got := met.StolenPerSteal.Count(); got != int64(st.Steals) {
		t.Fatalf("worksteal_stolen_per_steal count = %d, want %d", got, st.Steals)
	}
	if got, want := met.JobsStolen.Value(), met.StolenPerSteal.Sum(); got != want {
		t.Fatalf("worksteal_jobs_stolen_total = %d, histogram sum %d", got, want)
	}
	// Idle time: non-negative per machine, and bounded by makespan each.
	var idle int64
	for i := 0; i < tc.NumMachines(); i++ {
		v := met.Idle.At(i).Value()
		if v < 0 || v > st.Makespan {
			t.Fatalf("machine %d idle %d outside [0, %d]", i, v, st.Makespan)
		}
		idle += v
	}
	// Machines 1.. start empty next to a loaded machine 0, so some idle
	// time must have been charged before the first successful steals.
	if idle == 0 {
		t.Fatal("no idle time charged on an all-on-one start")
	}
	var steals, stolen int64
	for _, s := range rec.Spans() {
		if s.Kind == span.KindSession {
			steals++
			stolen += s.Value
		}
	}
	if rec.Dropped() != 0 {
		t.Fatalf("span ring dropped %d records; raise capacity", rec.Dropped())
	}
	if steals != int64(st.Steals) || stolen != met.JobsStolen.Value() {
		t.Fatalf("spans saw %d steals / %d jobs, want %d / %d",
			steals, stolen, st.Steals, met.JobsStolen.Value())
	}
}
