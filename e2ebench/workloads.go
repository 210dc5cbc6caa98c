package main

import (
	"fmt"
	"math"
	"time"

	"hetlb/internal/central"
	"hetlb/internal/core"
	"hetlb/internal/gossip"
	"hetlb/internal/obs"
	"hetlb/internal/protocol"
	"hetlb/internal/rng"
	"hetlb/internal/shardgossip"
	"hetlb/internal/workload"
)

// sizes fixes every instance dimension of the three workloads, and how many
// instances each runs per second of --seconds. The benchmark runs
// benchSizes; the test runs tinySizes.
type sizes struct {
	// paper alternates a two-cluster PaperM1+PaperM2 instance (DLB2C, CLB2C
	// reference) with one cluster of PaperM1+PaperM2 identical machines
	// (same-cost kernel, LPT reference), PaperN jobs with costs U[1,1000],
	// each run for PaperSteps exchanges per machine.
	PaperM1, PaperM2, PaperN, PaperSteps int
	// converge runs one typed MJTB instance (TypedM machines, TypedN jobs,
	// TypedK types) in every TypedEvery instances and two-cluster DLB2C
	// instances (ConvM1+ConvM2, ConvN jobs) otherwise, to a verified-stable
	// schedule or ConvEpochs epochs.
	TypedM, TypedN, TypedK int
	ConvM1, ConvM2, ConvN  int
	ConvEpochs, TypedEvery int
	// scale runs two-cluster DLB2C instances of ScaleM1+ScaleM2 machines and
	// ScaleN jobs with costs U[1,ScaleHi] for ScaleEpochs epochs.
	ScaleM1, ScaleM2, ScaleN int
	ScaleEpochs              int
	ScaleHi                  core.Cost
	// The rates are instances per second of --seconds.
	PaperRate, ConvRate, ScaleRate float64
}

// benchSizes are the workloads as the benchmark runs them. The rates make a
// run last about --seconds on a 2-vCPU Xeon @ 2.10GHz.
var benchSizes = sizes{
	PaperM1: 64, PaperM2: 32, PaperN: 768, PaperSteps: 30,
	TypedM: 96, TypedN: 768, TypedK: 5,
	ConvM1: 32, ConvM2: 16, ConvN: 384,
	ConvEpochs: 1000, TypedEvery: 8,
	ScaleM1: 43691, ScaleM2: 21845, ScaleN: 1 << 20, ScaleEpochs: 20, ScaleHi: 100,
	PaperRate: 80, ConvRate: 8, ScaleRate: 0.175,
}

// outcome is one instance's result.
type outcome struct {
	setup, solve, total time.Duration
	sessions, moves     int
	machines, jobs      int       // summed over the instance's systems
	cmax                core.Cost // final makespan (of the last system)
	logRatio            float64   // Σ log(Cmax ÷ reference) over systems
	systems             int
	converged           bool
	err                 error
	// kind tells apart the instances of a workload that do different work,
	// so that a median over instances can be taken per kind: on converge
	// kindCycled for DLB2C instances that stop at the epoch cap and
	// kindTyped for typed MJTB; every other instance is kindPlain.
	kind int
}

const (
	kindPlain = iota
	kindCycled
	kindTyped
	numKinds
)

func newOutcome(setup, solve, total time.Duration, sessions, moves int, model core.CostModel,
	cmax, ref core.Cost, converged bool, err error) outcome {
	o := outcome{
		setup: setup, solve: solve, total: total, sessions: sessions, moves: moves,
		machines: model.NumMachines(), jobs: model.NumJobs(),
		cmax: cmax, systems: 1, converged: converged, err: err,
	}
	if cmax > 0 && ref > 0 {
		o.logRatio = math.Log(float64(cmax) / float64(ref))
	}
	return o
}

// add folds another system of the same instance into o.
func (o *outcome) add(b outcome) {
	o.setup += b.setup
	o.solve += b.solve
	o.total += b.total
	o.sessions += b.sessions
	o.moves += b.moves
	o.machines += b.machines
	o.jobs += b.jobs
	o.cmax = b.cmax
	o.logRatio += b.logRatio
	o.systems += b.systems
	o.converged = o.converged && b.converged
	if o.err == nil {
		o.err = b.err
	}
}

type workloadFunc func(sz sizes, seed uint64, i int, tr *tracer, shards int) outcome

var workloads = map[string]workloadFunc{
	"paper":    paperInstance,
	"converge": convergeInstance,
	"scale":    scaleInstance,
}

// instances is how many instances a workload runs for the given seconds.
func instances(name string, sz sizes, seconds float64) int {
	rate := map[string]float64{"paper": sz.PaperRate, "converge": sz.ConvRate, "scale": sz.ScaleRate}[name]
	return max(1, int(math.Round(seconds*rate)))
}

// paperInstance runs the paper's two §VII systems once each on the
// sequential engine: random placement, a fixed budget of exchanges, and the
// centralized reference schedule. Running both in one instance keeps the
// instance times unimodal; alone, the two-cluster system takes about twice
// as long as the identical one.
func paperInstance(sz sizes, seed uint64, i int, tr *tracer, _ int) outcome {
	r := rng.New(rng.DeriveSeed(seed, uint64(i)))
	o := paperSystem(sz, r, tr, true)
	o.add(paperSystem(sz, r, tr, false))
	return o
}

// paperSystem is one system of a paper instance: two clusters running DLB2C
// against CLB2C, or identical machines running the same-cost kernel against
// LPT.
func paperSystem(sz sizes, r *rng.RNG, tr *tracer, twoCluster bool) outcome {
	t0 := time.Now()
	m := sz.PaperM1 + sz.PaperM2

	s := tr.begin()
	var model core.CostModel
	var p protocol.Protocol
	var tc *core.TwoCluster
	var id *core.Identical
	if twoCluster {
		tc = workload.UniformTwoCluster(r, sz.PaperM1, sz.PaperM2, sz.PaperN, 1, 1000)
		model, p = tc, protocol.DLB2C{Model: tc}
	} else {
		id = workload.UniformIdentical(r, m, sz.PaperN, 1, 1000)
		model, p = id, protocol.SameCost{Model: id}
	}
	tr.end(s, rowWorkload, totGen)

	s = tr.begin()
	a := core.NewAssignment(model)
	for j := 0; j < sz.PaperN; j++ {
		a.Assign(j, r.Intn(m))
	}
	tr.end(s, rowCore, totPlace)

	var k *kernelLog
	if tr != nil {
		k = newKernelLog(p, tr, 0)
		p = k
	}
	s = tr.begin()
	e := gossip.New(p, a, gossip.Config{Seed: r.Uint64()})
	tr.end(s, rowGossip, noTotal)
	setup := time.Since(t0)

	var clock *stepClock
	if tr != nil {
		clock = &stepClock{tr: tr}
		e.Observe(clock)
	}
	t1 := time.Now()
	s = tr.begin()
	if clock != nil {
		clock.last = s
	}
	res := e.Run(sz.PaperSteps*m, false)
	if tr != nil {
		d, busy := tr.now()-s, k.busyNS.Load()
		tr.gossipRun += d
		tr.gossipSteps += int64(res.Steps)
		tr.self[rowGossip] += d - busy
		tr.self[rowProtocolSessions] += busy
	}
	solve := time.Since(t1)

	s = tr.begin()
	var ref *core.Assignment
	if tc != nil {
		ref = central.RunCLB2C(tc)
	} else {
		ref = central.LPT(id)
	}
	tr.end(s, rowCentral, totReference)

	s = tr.begin()
	err := validate(a, res.FinalMakespan, e.Makespan())
	if err == nil {
		err = validate(ref, ref.Makespan(), ref.Makespan())
	}
	tr.end(s, rowCore, totValidate)

	return newOutcome(setup, solve, time.Since(t0), res.Steps, e.Moves(), model,
		res.FinalMakespan, ref.Makespan(), res.Converged, err)
}

// convergeInstance runs the sharded engine with stability detection on to a
// verified-stable schedule or the epoch cap. One instance in TypedEvery is
// typed MJTB (reference: core.LowerBound); the others are two-cluster DLB2C
// (reference: CLB2C), about a third of which cycle (Proposition 8).
func convergeInstance(sz sizes, seed uint64, i int, tr *tracer, shards int) outcome {
	r := rng.New(rng.DeriveSeed(seed, uint64(i)))
	if i%sz.TypedEvery == 0 {
		o := shardedInstance(tr, shards, rng.DeriveSeed(seed, uint64(i), 1), sz.ConvEpochs, true,
			func() (core.CostModel, protocol.Protocol) {
				ty := workload.UniformTyped(r, sz.TypedM, sz.TypedN, sz.TypedK, 1, 1000)
				return ty, protocol.MJTB{Model: ty}
			},
			func(model core.CostModel) (core.Cost, *core.Assignment) {
				return core.LowerBound(model), nil
			})
		o.kind = kindTyped
		return o
	}
	o := shardedInstance(tr, shards, rng.DeriveSeed(seed, uint64(i), 1), sz.ConvEpochs, true,
		func() (core.CostModel, protocol.Protocol) {
			tc := workload.UniformTwoCluster(r, sz.ConvM1, sz.ConvM2, sz.ConvN, 1, 1000)
			return tc, protocol.DLB2C{Model: tc}
		}, clb2c)
	if !o.converged {
		o.kind = kindCycled
	}
	return o
}

// scaleInstance runs the sharded engine on one large two-cluster instance
// for a fixed epoch budget, without stability detection.
func scaleInstance(sz sizes, seed uint64, i int, tr *tracer, shards int) outcome {
	r := rng.New(rng.DeriveSeed(seed, uint64(i)))
	return shardedInstance(tr, shards, rng.DeriveSeed(seed, uint64(i), 1), sz.ScaleEpochs, false,
		func() (core.CostModel, protocol.Protocol) {
			tc := workload.UniformTwoCluster(r, sz.ScaleM1, sz.ScaleM2, sz.ScaleN, 1, sz.ScaleHi)
			return tc, protocol.DLB2C{Model: tc}
		}, clb2c)
}

func clb2c(model core.CostModel) (core.Cost, *core.Assignment) {
	ref := central.RunCLB2C(model.(core.Clustered))
	return ref.Makespan(), ref
}

// shardedInstance is one instance on the sharded engine: generate,
// round-robin placement, engine build, Run for epochs epochs' worth of
// sessions, then the reference and the checks. reference returns the
// reference makespan and, when it is a schedule, the schedule.
func shardedInstance(tr *tracer, shards int, engineSeed uint64, epochs int, detect bool,
	gen func() (core.CostModel, protocol.Protocol),
	reference func(core.CostModel) (core.Cost, *core.Assignment)) outcome {
	t0 := time.Now()

	s := tr.begin()
	model, p := gen()
	tr.end(s, rowWorkload, totGen)

	s = tr.begin()
	a := core.RoundRobin(model)
	tr.end(s, rowCore, totPlace)

	m := model.NumMachines()
	var k *kernelLog
	cfg := shardgossip.Config{Seed: engineSeed, Shards: shards}
	if tr != nil {
		s := tr.begin()
		// An interval holds one epoch's sessions and one stability check;
		// the tail after the last epoch up to two checks.
		logCap := m / 2
		if detect {
			logCap = max(logCap, m*(m-1)/2) + m*(m-1)/2
		}
		k = newKernelLog(p, tr, logCap)
		p = k
		cfg.Metrics = shardgossip.NewMetrics(obs.NewRegistry())
		tr.end(s, rowTrace, noTotal)
	}
	s = tr.begin()
	e, err := shardgossip.New(p, a, cfg)
	tr.end(s, rowShardOther, totShardNew)
	if err != nil {
		return outcome{err: fmt.Errorf("shardgossip.New: %w", err)}
	}
	setup := time.Since(t0)

	var clock *barrierClock
	if tr != nil {
		clock = newBarrierClock(tr, k)
		e.Observe(clock)
	}
	t1 := time.Now()
	if clock != nil {
		clock.boundary = tr.now()
	}
	res := e.Run(epochs*(m/2), detect)
	if clock != nil {
		clock.finish(tr.now(), res.Converged)
		tr.sessions += cfg.Metrics.Sessions.Value()
		tr.changed += cfg.Metrics.Changed.Value()
		tr.cross += cfg.Metrics.Cross.Value()
		tr.moves += cfg.Metrics.Moves.Value()
	}
	solve := time.Since(t1)

	s = tr.begin()
	err = e.ValidateConservation()
	e.Close()
	tr.end(s, rowShardOther, noTotal)

	s = tr.begin()
	refCmax, ref := reference(model)
	if ref != nil {
		tr.end(s, rowCentral, totReference)
	} else {
		tr.end(s, rowCore, noTotal)
	}

	s = tr.begin()
	if err == nil {
		err = validate(res.Assignment, res.FinalMakespan, e.Makespan())
	}
	if err == nil && ref != nil {
		err = validate(ref, refCmax, refCmax)
	}
	if err == nil && res.FinalMakespan < refCmax && ref == nil {
		err = fmt.Errorf("makespan %d below the lower bound %d", res.FinalMakespan, refCmax)
	}
	tr.end(s, rowCore, totValidate)

	return newOutcome(setup, solve, time.Since(t0), res.Steps, e.Moves(), model,
		res.FinalMakespan, refCmax, res.Converged, err)
}

// validate checks a final schedule: it passes Assignment.Validate, places
// every job exactly once on a machine of the model, and the makespan
// recomputed from job costs equals the assignment's own, the one its
// producer reported and the producer's incremental cache.
func validate(a *core.Assignment, reported, cached core.Cost) error {
	if err := a.Validate(); err != nil {
		return fmt.Errorf("invalid schedule: %w", err)
	}
	model := a.Model()
	m := model.NumMachines()
	loads := make([]core.Cost, m)
	for j := 0; j < model.NumJobs(); j++ {
		i := a.MachineOf(j)
		if i < 0 || i >= m {
			return fmt.Errorf("job %d placed on machine %d of %d", j, i, m)
		}
		loads[i] += model.Cost(i, j)
	}
	var cmax core.Cost
	for _, l := range loads {
		cmax = max(cmax, l)
	}
	if cmax != a.Makespan() || cmax != reported || cmax != cached {
		return fmt.Errorf("recomputed makespan %d, assignment says %d, producer reported %d (cached %d)",
			cmax, a.Makespan(), reported, cached)
	}
	return nil
}
