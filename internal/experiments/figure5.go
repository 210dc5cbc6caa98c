package experiments

import (
	"sort"

	"hetlb/internal/core"
	"hetlb/internal/gossip"
	"hetlb/internal/harness"
	"hetlb/internal/plot"
	"hetlb/internal/stats"
)

// Figure5Result is one configuration's "time to reach 1.5× the centralized
// makespan" study. The paper reports the distribution, over machines, of
// the number of pairwise exchanges each machine had participated in when
// the system's makespan first dropped below the threshold — normalized so
// that "5 exchanges per machine" is comparable across system sizes.
type Figure5Result struct {
	Config SimConfig
	// Threshold factor relative to the centralized reference (1.5 in the
	// paper).
	Factor float64
	// PerMachineExchanges collects, over all runs and machines, each
	// machine's exchange count at the first crossing.
	PerMachineExchanges []float64
	// CrossedRuns / TotalRuns report how many runs reached the threshold
	// within the budget at all.
	CrossedRuns, TotalRuns int
	// GlobalStepsPerMachine collects, per crossed run, the total step
	// count at crossing divided by the machine count.
	GlobalStepsPerMachine []float64
	// Summary summarizes PerMachineExchanges.
	Summary stats.Summary
}

// thresholdWatcher is the Figure 5 observer: it records the first step at
// which the makespan drops to or below Threshold, together with a snapshot
// of the per-machine exchange counts at that moment.
type thresholdWatcher struct {
	// Threshold is the makespan level watched for.
	Threshold core.Cost
	// Crossed reports whether the threshold was reached.
	Crossed bool
	// FirstStep is the 0-based step index of the first crossing.
	FirstStep int
	// ExchangesAtCross is a copy of the per-machine exchange counts at the
	// crossing.
	ExchangesAtCross []int
}

// OnStep implements gossip.Observer.
func (t *thresholdWatcher) OnStep(e gossip.Stepper, step, _, _ int) {
	if t.Crossed || e.Makespan() > t.Threshold {
		return
	}
	t.Crossed = true
	t.FirstStep = step
	t.ExchangesAtCross = append([]int(nil), e.Exchanges()...)
}

// ExchangesPerMachine returns the crossing step normalized by the machine
// count, the x-axis unit of Figure 5. It returns ok=false if the threshold
// was never crossed.
func (t *thresholdWatcher) ExchangesPerMachine(machines int) (float64, bool) {
	if !t.Crossed || machines == 0 {
		return 0, false
	}
	return float64(t.FirstStep+1) / float64(machines), true
}

// figure5Run is one replication's contribution, merged in index order.
type figure5Run struct {
	Crossed bool
	// PerMachine holds each machine's exchange count at the first crossing
	// (all zeros when the run started below the threshold).
	PerMachine []float64
	// Global is the run's total step count at crossing divided by the
	// machine count; HasGlobal reports whether it is meaningful.
	Global    float64
	HasGlobal bool
}

// Figure5 measures time-to-threshold for each configuration.
func Figure5(cfgs []SimConfig, factor float64) []Figure5Result {
	return must(Figure5With(harness.Options{}, cfgs, factor))
}

// Figure5With is Figure5 with explicit harness options; run r of a
// configuration is keyed by (cfg.Seed+2000, r).
func Figure5With(opt harness.Options, cfgs []SimConfig, factor float64) ([]Figure5Result, error) {
	out := make([]Figure5Result, 0, len(cfgs))
	for _, cfg := range cfgs {
		cfg := cfg
		runs, err := harness.Map(opt, cfg.Seed+2000, cfg.Runs, func(rep *harness.Rep) (figure5Run, error) {
			gen := rep.RNG
			inst := cfg.build(gen)
			a := randomInitial(gen, inst.model)
			threshold := core.Cost(factor * float64(inst.cent))
			w := &thresholdWatcher{Threshold: threshold}
			e := newEngine(inst, a, gen.Uint64())
			e.Observe(w)
			if a.Makespan() <= threshold {
				// Already below at start: every machine needed 0
				// exchanges (the paper notes this is common in the
				// homogeneous case).
				return figure5Run{
					Crossed:    true,
					PerMachine: make([]float64, cfg.Machines()),
					HasGlobal:  true,
				}, nil
			}
			e.Run(cfg.StepsPerMachine*cfg.Machines(), false)
			if !w.Crossed {
				return figure5Run{}, nil
			}
			r := figure5Run{Crossed: true}
			for _, c := range w.ExchangesAtCross {
				r.PerMachine = append(r.PerMachine, float64(c))
			}
			r.Global, r.HasGlobal = w.ExchangesPerMachine(cfg.Machines())
			return r, nil
		})
		if err != nil {
			return nil, err
		}
		res := Figure5Result{Config: cfg, Factor: factor, TotalRuns: cfg.Runs}
		for _, r := range runs {
			if !r.Crossed {
				continue
			}
			res.CrossedRuns++
			res.PerMachineExchanges = append(res.PerMachineExchanges, r.PerMachine...)
			if r.HasGlobal {
				res.GlobalStepsPerMachine = append(res.GlobalStepsPerMachine, r.Global)
			}
		}
		res.Summary = stats.Summarize(res.PerMachineExchanges)
		out = append(out, res)
	}
	return out, nil
}

// CDFSeries renders each configuration's per-machine exchange counts as an
// empirical CDF (the Figure 5 axes: x = exchanges per machine, y = fraction
// of machines that had reached the threshold by then).
func Figure5CDFSeries(results []Figure5Result) []plot.Series {
	out := make([]plot.Series, 0, len(results))
	for _, r := range results {
		xs := append([]float64(nil), r.PerMachineExchanges...)
		sort.Float64s(xs)
		var px, py []float64
		n := float64(len(xs))
		for k, x := range xs {
			if k > 0 && x == xs[k-1] {
				py[len(py)-1] = float64(k+1) / n
				continue
			}
			px = append(px, x)
			py = append(py, float64(k+1)/n)
		}
		out = append(out, plot.NewSeries(r.Config.Name, px, py))
	}
	return out
}
