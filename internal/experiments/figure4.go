package experiments

import (
	"fmt"
	"slices"

	"hetlb/internal/core"
	"hetlb/internal/gossip"
	"hetlb/internal/harness"
	"hetlb/internal/plot"
)

// Figure4Run is one makespan trajectory (Figure 4 of the paper shows that
// runs quickly reach a plateau and oscillate around it without converging).
type Figure4Run struct {
	Config SimConfig
	Run    int
	// ExchangesPerMachine is the x axis: step/machines at each sample.
	ExchangesPerMachine []float64
	// MakespanOverCent is Cmax normalized by the centralized reference so
	// heterogeneous and homogeneous runs share an axis.
	MakespanOverCent []float64
	// MinReached is the best normalized makespan seen during the run.
	MinReached float64
	// FinalOscillation is (max − min) of the normalized makespan over the
	// last quarter of the run — the amplitude of the equilibrium
	// oscillation.
	FinalOscillation float64
}

// Figure4 records runsPerCfg trajectories per configuration, sampling the
// makespan every machine-count steps (≈ once per "exchange per machine").
func Figure4(cfgs []SimConfig, runsPerCfg int) []Figure4Run {
	return must(Figure4With(harness.Options{}, cfgs, runsPerCfg))
}

// Figure4With is Figure4 with explicit harness options. Trajectory r of a
// configuration is keyed by (cfg.Seed+1000, r) and recorded in index order.
func Figure4With(opt harness.Options, cfgs []SimConfig, runsPerCfg int) ([]Figure4Run, error) {
	var out []Figure4Run
	for _, cfg := range cfgs {
		cfg := cfg
		runs, err := harness.Map(opt, cfg.Seed+1000, runsPerCfg, func(rep *harness.Rep) (Figure4Run, error) {
			gen := rep.RNG
			inst := cfg.build(gen)
			a := randomInitial(gen, inst.model)
			e := newEngine(inst, a, gen.Uint64())
			rec := &makespanSeries{SampleEvery: cfg.Machines()}
			e.Observe(rec)
			e.Run(cfg.StepsPerMachine*cfg.Machines(), false)
			fr := Figure4Run{Config: cfg, Run: rep.Index}
			cent := float64(inst.cent)
			for k, v := range rec.Values {
				fr.ExchangesPerMachine = append(fr.ExchangesPerMachine,
					float64(rec.Steps[k])/float64(cfg.Machines()))
				fr.MakespanOverCent = append(fr.MakespanOverCent, float64(v)/cent)
			}
			fr.MinReached = float64(rec.Min()) / cent
			fr.FinalOscillation = oscillation(fr.MakespanOverCent)
			return fr, nil
		})
		if err != nil {
			return nil, err
		}
		out = append(out, runs...)
	}
	return out, nil
}

// makespanSeries is the Figure 4 observer: it records Cmax every
// SampleEvery steps (and at step 0) from the engine's incremental cache.
type makespanSeries struct {
	// SampleEvery controls the sampling period; 0 or 1 records every step.
	SampleEvery int
	// Steps and Values are the recorded series.
	Steps  []int
	Values []core.Cost
}

// OnStep implements gossip.Observer.
func (t *makespanSeries) OnStep(e gossip.Stepper, step, _, _ int) {
	if t.SampleEvery > 1 && step%t.SampleEvery != 0 {
		return
	}
	t.Steps = append(t.Steps, step)
	t.Values = append(t.Values, e.Makespan())
}

// Min returns the smallest recorded makespan (0 if empty).
func (t *makespanSeries) Min() core.Cost {
	if len(t.Values) == 0 {
		return 0
	}
	return slices.Min(t.Values)
}

// oscillation returns max−min over the last quarter of the series.
func oscillation(ys []float64) float64 {
	if len(ys) == 0 {
		return 0
	}
	start := len(ys) * 3 / 4
	lo, hi := ys[start], ys[start]
	for _, v := range ys[start:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return hi - lo
}

// Figure4Series converts runs into plot series.
func Figure4Series(runs []Figure4Run) []plot.Series {
	out := make([]plot.Series, 0, len(runs))
	for _, r := range runs {
		out = append(out, plot.NewSeries(
			fmt.Sprintf("%s run %d", r.Config.Name, r.Run),
			r.ExchangesPerMachine, r.MakespanOverCent))
	}
	return out
}
