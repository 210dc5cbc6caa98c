// Root benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md §4). Each benchmark runs a reduced-but-faithful
// version of its experiment and reports the figure's headline quantity as a
// custom metric, so `go test -bench=.` regenerates the shape of the whole
// evaluation quickly; cmd/figures runs the full-scale versions.
package hetlb_test

import (
	"testing"

	"hetlb"
	"hetlb/internal/core"
	"hetlb/internal/experiments"
	"hetlb/internal/harness"
)

// BenchmarkTableI — Theorem 1: work stealing on the trap instance. Reports
// the achieved/optimal ratio at n=1000 (grows linearly in n; OPT stays 2).
func BenchmarkTableI(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows := experiments.TableI([]core.Cost{10, 100, 1000}, uint64(i))
		ratio = rows[len(rows)-1].Ratio
	}
	b.ReportMetric(ratio, "ratio@n=1000")
}

// BenchmarkTableII — Proposition 2: the pairwise-optimal trap. Reports the
// trap/OPT ratio at n=1000.
func BenchmarkTableII(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows := experiments.TableII([]core.Cost{10, 100, 1000})
		last := rows[len(rows)-1]
		ratio = float64(last.TrapMakespan) / float64(last.Opt)
	}
	b.ReportMetric(ratio, "ratio@n=1000")
}

// BenchmarkFigure1 — Proposition 8: exhaustive exploration of the cycling
// instance. Reports the reachable state count (stable count is asserted 0).
func BenchmarkFigure1(b *testing.B) {
	var states int
	for i := 0; i < b.N; i++ {
		r := experiments.Figure1()
		if !r.ProvenNonConvergent {
			b.Fatal("cycle instance regressed")
		}
		states = r.ReachableStates
	}
	b.ReportMetric(float64(states), "reachable-states")
}

// BenchmarkFigure2a — stationary makespan distribution, m=6, pmax ∈ {2,4}
// (pmax 8 and 16 are the full-scale cmd/figures run). Reports the mode of
// the pmax=4 curve in normalized deviation units (the paper observes 0.5).
func BenchmarkFigure2a(b *testing.B) {
	var mode float64
	for i := 0; i < b.N; i++ {
		curves, err := experiments.Figure2a([]int64{2, 4})
		if err != nil {
			b.Fatal(err)
		}
		mode = curves[1].Mode
	}
	b.ReportMetric(mode, "mode@pmax=4")
}

// BenchmarkFigure2b — stationary distribution, pmax=4, m ∈ {3..6}. Reports
// the tail mass beyond 1.5·pmax for m=6 (the paper observes ≈0).
func BenchmarkFigure2b(b *testing.B) {
	var tail float64
	for i := 0; i < b.N; i++ {
		curves, err := experiments.Figure2b([]int{3, 4, 5, 6})
		if err != nil {
			b.Fatal(err)
		}
		tail = curves[len(curves)-1].TailBeyond15
	}
	b.ReportMetric(tail, "tail>1.5@m=6")
}

// BenchmarkFigure3 — equilibrium makespan distributions, heterogeneous vs
// homogeneous (reduced systems). Reports the mean normalized deviation of
// each, which the paper observes to be low and similar.
func BenchmarkFigure3(b *testing.B) {
	cfgs := []experiments.SimConfig{
		experiments.PaperHetero().Reduced(),
		experiments.PaperHomogeneous().Reduced(),
	}
	var het, hom float64
	for i := 0; i < b.N; i++ {
		res := experiments.Figure3(cfgs)
		het, hom = res[0].Summary.Mean, res[1].Summary.Mean
	}
	b.ReportMetric(het, "mean-dev-hetero")
	b.ReportMetric(hom, "mean-dev-homog")
}

// BenchmarkFigure3Harness measures the replication harness itself on a
// paper-sized Figure 3 configuration (64+32 machines, 768 jobs, 8 runs):
// Sequential is the Parallelism=1 baseline, Parallel4 the 4-worker pool.
// Both produce identical results (see internal/experiments determinism
// tests); the sub-benchmark ratio is the harness's speedup.
func BenchmarkFigure3Harness(b *testing.B) {
	cfg := experiments.PaperHetero()
	cfg.Runs = 8
	cfgs := []experiments.SimConfig{cfg}
	run := func(b *testing.B, parallelism int) {
		var mean float64
		for i := 0; i < b.N; i++ {
			res, err := experiments.Figure3With(harness.Options{Parallelism: parallelism}, cfgs)
			if err != nil {
				b.Fatal(err)
			}
			mean = res[0].Summary.Mean
		}
		b.ReportMetric(mean, "mean-dev")
	}
	b.Run("Sequential", func(b *testing.B) { run(b, 1) })
	b.Run("Parallel4", func(b *testing.B) { run(b, 4) })
}

// BenchmarkFigure4 — makespan trajectories. Reports the equilibrium
// oscillation amplitude (normalized by the centralized makespan) of a
// heterogeneous run: small per the paper ("variations stay close to the
// minimum").
func BenchmarkFigure4(b *testing.B) {
	cfgs := []experiments.SimConfig{experiments.PaperHetero().Reduced()}
	var osc float64
	for i := 0; i < b.N; i++ {
		runs := experiments.Figure4(cfgs, 2)
		osc = runs[0].FinalOscillation
	}
	b.ReportMetric(osc, "oscillation")
}

// BenchmarkFigure5 — exchanges per machine to first reach 1.5×CLB2C.
// Reports the 90th percentile (the paper observes ≈5 at full scale).
func BenchmarkFigure5(b *testing.B) {
	cfgs := []experiments.SimConfig{experiments.PaperHetero().Reduced()}
	var p90 float64
	for i := 0; i < b.N; i++ {
		res := experiments.Figure5(cfgs, 1.5)
		p90 = res[0].Summary.P90
	}
	b.ReportMetric(p90, "p90-exchanges")
}

// --- Ablation benches (DESIGN.md §5) -------------------------------------

// BenchmarkAblationSelectionUniform/Sweep compare pair-selection policies by
// the makespan reached after a fixed exchange budget on the same instances.
func BenchmarkAblationSelectionUniform(b *testing.B) {
	benchSelection(b, false)
}

// BenchmarkAblationSelectionSweep is the round-robin-initiator variant.
func BenchmarkAblationSelectionSweep(b *testing.B) {
	benchSelection(b, true)
}

func benchSelection(b *testing.B, sweep bool) {
	// Uses the public API plus internal gossip selection; constructed here
	// to keep the ablation self-contained.
	p0 := make([]hetlb.Cost, 192)
	p1 := make([]hetlb.Cost, 192)
	for j := range p0 {
		p0[j] = hetlb.Cost(1 + (j*7919)%1000)
		p1[j] = hetlb.Cost(1 + (j*104729)%1000)
	}
	tc, err := hetlb.NewTwoCluster(16, 8, p0, p1)
	if err != nil {
		b.Fatal(err)
	}
	var final hetlb.Cost
	for i := 0; i < b.N; i++ {
		final = runSelectionAblation(tc, uint64(i), sweep)
	}
	b.ReportMetric(float64(final)/hetlb.TwoClusterLowerBound(tc), "cmax/lb")
}

// BenchmarkEngineSequential runs the sequential engine through the facade at
// a fixed exchange budget.
func BenchmarkEngineSequential(b *testing.B) {
	tc := ablationInstance(b)
	for i := 0; i < b.N; i++ {
		initial := hetlb.RandomInitial(tc, uint64(i))
		if _, err := hetlb.DLB2C(tc, initial, hetlb.RunOptions{Seed: uint64(i), MaxExchanges: 24 * 10}); err != nil {
			b.Fatal(err)
		}
	}
}

func ablationInstance(b *testing.B) *hetlb.TwoCluster {
	b.Helper()
	p0 := make([]hetlb.Cost, 192)
	p1 := make([]hetlb.Cost, 192)
	for j := range p0 {
		p0[j] = hetlb.Cost(1 + (j*6151)%1000)
		p1[j] = hetlb.Cost(1 + (j*12289)%1000)
	}
	tc, err := hetlb.NewTwoCluster(16, 8, p0, p1)
	if err != nil {
		b.Fatal(err)
	}
	return tc
}

// BenchmarkAblationMovesRebuild / MinMove quantify the paper's "minimize
// the number of tasks exchanged" future work: same budget, same instances;
// the metric is total job migrations plus final quality.
func BenchmarkAblationMovesRebuild(b *testing.B) {
	benchMoves(b, false)
}

// BenchmarkAblationMovesMinMove is the movement-minimizing variant.
func BenchmarkAblationMovesMinMove(b *testing.B) {
	benchMoves(b, true)
}

// BenchmarkCentralizedReferences compares the three centralized algorithms
// on the same two-cluster instance: the paper's CLB2C, the LST LP-rounding
// 2-approximation it cites, and the ECT greedy. Metrics are each
// algorithm's Cmax normalized by the fractional lower bound.
func BenchmarkCentralizedReferences(b *testing.B) {
	p0 := make([]hetlb.Cost, 96)
	p1 := make([]hetlb.Cost, 96)
	for j := range p0 {
		p0[j] = hetlb.Cost(1 + (j*3571)%500)
		p1[j] = hetlb.Cost(1 + (j*9173)%500)
	}
	tc, err := hetlb.NewTwoCluster(6, 3, p0, p1)
	if err != nil {
		b.Fatal(err)
	}
	lb := hetlb.TwoClusterLowerBound(tc)
	var clb, lst, ect hetlb.Cost
	for i := 0; i < b.N; i++ {
		clb = hetlb.CLB2C(tc).Makespan()
		a, _, err := hetlb.LST(tc)
		if err != nil {
			b.Fatal(err)
		}
		lst = a.Makespan()
		ect = hetlb.ListScheduling(tc).Makespan()
	}
	b.ReportMetric(float64(clb)/lb, "clb2c/lb")
	b.ReportMetric(float64(lst)/lb, "lst/lb")
	b.ReportMetric(float64(ect)/lb, "ect/lb")
}

// BenchmarkMessagePassingLatency measures how network latency stretches the
// message-passing runtime's convergence (final Cmax/LB at a fixed horizon).
func BenchmarkMessagePassingLatency1(b *testing.B) { benchNetLatency(b, 1) }

// BenchmarkMessagePassingLatency20 is the high-latency variant.
func BenchmarkMessagePassingLatency20(b *testing.B) { benchNetLatency(b, 20) }

// BenchmarkGossipBare / BenchmarkGossipObserved quantify the cost of full
// observability (metrics registry + span trace) on the sequential engine.
// The record path is allocation-free by construction, so the gap should stay
// within a few percent; the measured number is documented in README.md.
func BenchmarkGossipBare(b *testing.B) {
	benchGossipObserved(b, false)
}

// BenchmarkGossipObserved is the fully instrumented variant.
func BenchmarkGossipObserved(b *testing.B) {
	benchGossipObserved(b, true)
}

func benchGossipObserved(b *testing.B, observed bool) {
	tc := ablationInstance(b)
	var reg *hetlb.MetricsRegistry
	var spans *hetlb.SpanTrace
	if observed {
		reg = hetlb.NewMetricsRegistry()
		spans = hetlb.NewSpanTrace(1 << 16)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		initial := hetlb.RandomInitial(tc, uint64(i))
		if _, err := hetlb.DLB2C(tc, initial, hetlb.RunOptions{
			Seed: uint64(i), MaxExchanges: 24 * 10, Metrics: reg, Spans: spans,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
