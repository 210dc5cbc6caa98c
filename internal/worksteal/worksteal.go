// Package worksteal simulates the classical work-stealing scheduler
// (Algorithm 1 of the paper, after Burton & Sleep) on an arbitrary cost
// model. It is the a-posteriori baseline the paper argues against: Theorem 1
// shows that on unrelated machines a bad initial distribution delays the
// first steal until after the optimal makespan has already elapsed
// (Table I), which this simulator reproduces exactly.
//
// Semantics. Each machine owns a deque of pending jobs and runs them one at
// a time from the front. A machine whose deque empties starts a steal
// episode: it probes the other machines in a uniformly random order and
// steals the back half (⌈pending/2⌉) of the first victim that has pending
// (non-running) jobs. Within one timestamp, completions are processed before
// steal resolutions, which are processed before job starts — i.e.
// rebalancing happens at scheduling points before the local dequeue. This is
// the most charitable semantics for work stealing; it is what allows the
// Table I instance to finish at n+1 rather than 2n.
//
// Jobs are never created during a run, so the total number of pending jobs
// only decreases; a machine that goes idle when nothing is pending anywhere
// can never steal again and retires.
package worksteal

import (
	"fmt"

	"hetlb/internal/core"
	"hetlb/internal/des"
	"hetlb/internal/obs"
	"hetlb/internal/obs/span"
	"hetlb/internal/obs/timeline"
	"hetlb/internal/rng"
)

// Metrics bundles the simulator's obs instruments.
type Metrics struct {
	// Probes counts victim probes; Steals successful steals; JobsStolen
	// the jobs transferred by them.
	Probes, Steals, JobsStolen *obs.Counter
	// Idle accumulates, per machine, the virtual time spent with an empty
	// deque waiting for work (probing victims or blocked on latency).
	// Trailing idleness of retired machines is not charged: once nothing is
	// pending anywhere a machine can never run again, so its "idle" tail is
	// unbounded-by-definition rather than schedulable waste.
	Idle *obs.CounterVec
	// StolenPerSteal is the distribution of jobs taken per successful
	// steal.
	StolenPerSteal *obs.Histogram
}

// NewMetrics registers the simulator's instruments for the given machine
// count (idempotent on the same registry).
func NewMetrics(r *obs.Registry, machines int) *Metrics {
	return &Metrics{
		Probes:         r.Counter("worksteal_probes_total", "victim probes"),
		Steals:         r.Counter("worksteal_steals_total", "successful steals"),
		JobsStolen:     r.Counter("worksteal_jobs_stolen_total", "jobs transferred by steals"),
		Idle:           r.CounterVec("worksteal_idle_vt_total", "virtual time spent idle per machine", "machine", obs.IndexLabels(machines)),
		StolenPerSteal: r.Histogram("worksteal_stolen_per_steal", "jobs taken per successful steal", obs.Pow2Bounds(12)),
	}
}

// StealPolicy selects how much a successful steal takes.
type StealPolicy int

// Steal policies.
const (
	// StealHalf takes the back ⌈pending/2⌉ of the victim's deque —
	// Algorithm 1's "steal half", the Cilk-style default.
	StealHalf StealPolicy = iota
	// StealOne takes a single job from the back — the classic ablation;
	// cheaper transfers, more steal traffic.
	StealOne
)

// Config parameterizes a simulation.
type Config struct {
	// Seed drives victim selection.
	Seed uint64
	// StealLatency is the virtual time consumed by each victim probe.
	// Zero models instantaneous steals (the paper's idealization).
	StealLatency int64
	// Policy selects the steal amount (default StealHalf).
	Policy StealPolicy
	// MaxEvents bounds the simulation as a safety valve; 0 picks a
	// generous default derived from the instance size.
	MaxEvents uint64
	// Metrics, when non-nil, receives steal/idle instrumentation (build
	// with NewMetrics for the same machine count).
	Metrics *Metrics
	// Spans, when non-nil, receives one KindSession span per successful
	// steal (A = thief, B = victim, Start = when the thief went idle, End =
	// the steal's commit time, Value = jobs taken), parented to a KindRun
	// span closed at the end of Run. Times are virtual.
	Spans *span.Recorder
	// Timeline, when non-nil, receives one point per successful steal:
	// Time = virtual time, Imbalance = jobs not yet completed (the
	// scheduler's distance from done; there is no running Cmax), cumulative
	// Moves = jobs stolen and Messages = victim probes.
	Timeline *timeline.Recorder
}

// Stats is the outcome of a simulation.
type Stats struct {
	// Makespan is the completion time of the last job.
	Makespan int64
	// FirstStealTime is the time of the first successful steal, or -1 if
	// no steal ever succeeded.
	FirstStealTime int64
	// Steals counts successful steals; Probes counts victim probes.
	Steals, Probes int
	// JobsMoved counts jobs that changed machine at least once.
	JobsMoved int
	// Completion holds each job's completion time.
	Completion []int64
	// ExecutedOn holds the machine that finally executed each job.
	ExecutedOn []int
}

type machine struct {
	pending []int // deque: front = next to run locally, back = steal side
	running int   // job index or -1
}

// Simulator runs Algorithm 1 on one instance from one initial distribution.
type Simulator struct {
	model   core.CostModel
	sim     *des.Simulator
	gen     *rng.RNG
	cfg     Config
	ms      []machine
	pending int // total pending (not running) jobs
	left    int // jobs not yet completed
	stats   Stats
	moved   []bool
	// orders[i] is machine i's reusable victim-order buffer. A machine has
	// at most one steal episode chain in flight at a time (a new episode
	// starts only from its own start/complete, after any previous chain
	// ended), so reusing the buffer per machine is safe and keeps episodes
	// allocation-free.
	orders [][]int
	// idleSince[i] is the virtual time machine i last ran out of local
	// work, or -1 while it is running/has work; used for the idle metric.
	idleSince []int64
	runSpan   span.ID
	stolen    int64 // cumulative jobs transferred by steals (timeline Moves)
}

// New builds a simulator from a complete initial assignment. The assignment
// is not mutated; its job placement defines the initial deques (jobs in
// increasing index order).
func New(m core.CostModel, initial *core.Assignment, cfg Config) (*Simulator, error) {
	if !initial.Complete() {
		return nil, fmt.Errorf("worksteal: initial assignment must place every job")
	}
	if cfg.StealLatency < 0 {
		return nil, fmt.Errorf("worksteal: negative steal latency")
	}
	s := &Simulator{
		model:     m,
		sim:       des.New(),
		gen:       rng.New(cfg.Seed),
		cfg:       cfg,
		ms:        make([]machine, m.NumMachines()),
		left:      m.NumJobs(),
		moved:     make([]bool, m.NumJobs()),
		orders:    make([][]int, m.NumMachines()),
		idleSince: make([]int64, m.NumMachines()),
	}
	for i := range s.orders {
		s.orders[i] = make([]int, m.NumMachines())
	}
	for i := range s.idleSince {
		s.idleSince[i] = -1
	}
	s.stats.FirstStealTime = -1
	s.stats.Completion = make([]int64, m.NumJobs())
	s.stats.ExecutedOn = make([]int, m.NumJobs())
	for i := range s.ms {
		s.ms[i].running = -1
	}
	for j := 0; j < m.NumJobs(); j++ {
		i := initial.MachineOf(j)
		s.ms[i].pending = append(s.ms[i].pending, j)
	}
	s.pending = m.NumJobs()
	if cfg.Spans != nil {
		s.runSpan = cfg.Spans.NextID()
	}
	return s, nil
}

// Run simulates until every job has completed and returns the statistics.
func (s *Simulator) Run() Stats {
	if s.left == 0 {
		return s.stats
	}
	for i := range s.ms {
		i := i
		s.sim.At(0, des.PhaseStart, func() { s.start(i) })
	}
	maxEvents := s.cfg.MaxEvents
	if maxEvents == 0 {
		// Each job contributes one completion and at most one start per
		// move; probes are bounded by (machines per episode) × episodes.
		maxEvents = uint64(1000000 + 100*uint64(s.model.NumJobs())*uint64(s.model.NumMachines()))
	}
	if !s.sim.Run(maxEvents) {
		panic("worksteal: event budget exhausted; simulation diverged")
	}
	if s.left != 0 {
		panic("worksteal: simulation drained with jobs uncompleted")
	}
	if sp := s.cfg.Spans; sp != nil {
		sp.Append(span.Span{
			ID:     s.runSpan,
			Parent: sp.Root(),
			Kind:   span.KindRun,
			A:      -1,
			B:      -1,
			Start:  0,
			End:    s.stats.Makespan,
			Value:  s.stats.Makespan,
		})
	}
	return s.stats
}

// start runs machine i's next local job or begins a steal episode.
func (s *Simulator) start(i int) {
	m := &s.ms[i]
	if m.running != -1 {
		return
	}
	if len(m.pending) > 0 {
		s.settleIdle(i)
		j := m.pending[0]
		m.pending = m.pending[1:]
		s.pending--
		m.running = j
		done := s.sim.Now() + int64(s.model.Cost(i, j))
		s.sim.At(done, des.PhaseComplete, func() { s.complete(i, j) })
		return
	}
	s.markIdle(i)
	if s.pending == 0 {
		// Nothing stealable exists now or ever again: retire.
		return
	}
	s.gen.PermInto(s.orders[i])
	s.episode(i, s.orders[i])
}

// markIdle notes that machine i ran out of local work at the current time
// (no-op if it is already idle).
func (s *Simulator) markIdle(i int) {
	if s.idleSince[i] < 0 {
		s.idleSince[i] = s.sim.Now()
	}
}

// settleIdle charges machine i's accumulated idle span to the idle metric
// when it resumes running.
func (s *Simulator) settleIdle(i int) {
	if s.idleSince[i] < 0 {
		return
	}
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.Idle.At(i).Add(s.sim.Now() - s.idleSince[i])
	}
	s.idleSince[i] = -1
}

// complete finishes job j on machine i and schedules what i does next: a
// local start if it has pending work, otherwise a steal episode in the
// transfer phase of the current instant (so steals settle before any starts
// at this timestamp).
func (s *Simulator) complete(i, j int) {
	m := &s.ms[i]
	m.running = -1
	s.stats.Completion[j] = s.sim.Now()
	s.stats.ExecutedOn[j] = i
	if s.moved[j] {
		s.stats.JobsMoved++
	}
	s.left--
	if s.left == 0 {
		s.stats.Makespan = s.sim.Now()
		return
	}
	if len(m.pending) > 0 {
		s.sim.At(s.sim.Now(), des.PhaseStart, func() { s.start(i) })
	} else if s.pending > 0 {
		s.markIdle(i)
		// Draw the victim order now (the draw point is part of the
		// deterministic event order) into the machine's own buffer.
		s.gen.PermInto(s.orders[i])
		order := s.orders[i]
		s.sim.At(s.sim.Now(), des.PhaseTransfer, func() { s.episode(i, order) })
	}
	// If s.pending == 0 the machine retires; pending never grows.
}

// episode probes victims in the given order until a steal succeeds or the
// order is exhausted. Each probe consumes StealLatency virtual time.
func (s *Simulator) episode(i int, order []int) {
	for k, victim := range order {
		if victim == i {
			continue
		}
		s.stats.Probes++
		if s.cfg.Metrics != nil {
			s.cfg.Metrics.Probes.Inc()
		}
		v := &s.ms[victim]
		if len(v.pending) == 0 {
			if s.cfg.StealLatency > 0 {
				rest := order[k+1:]
				s.sim.After(s.cfg.StealLatency, des.PhaseTransfer, func() { s.episode(i, rest) })
				return
			}
			continue
		}
		commit := func() {
			s.steal(i, victim)
		}
		if s.cfg.StealLatency > 0 {
			s.sim.After(s.cfg.StealLatency, des.PhaseTransfer, commit)
		} else {
			commit()
		}
		return
	}
	// Every victim probed empty. With zero latency this implies nothing is
	// pending anywhere (the thief's own deque is empty too) and the
	// machine retires; with positive latency victims may have been drained
	// between probes, so re-enter start to re-evaluate.
	if s.pending > 0 {
		s.sim.At(s.sim.Now(), des.PhaseStart, func() { s.start(i) })
	}
}

// steal transfers the back half of the victim's pending deque to machine i
// and starts i's next job immediately (still within the transfer phase: a
// thief begins executing stolen work right away, so machines that only
// *start* at this instant cannot steal it back). The victim may have been
// drained between the probe and a latency-delayed commit, in which case the
// thief re-enters start to try again.
func (s *Simulator) steal(i, victim int) {
	v := &s.ms[victim]
	if len(v.pending) == 0 {
		s.start(i)
		return
	}
	take := (len(v.pending) + 1) / 2
	if s.cfg.Policy == StealOne {
		take = 1
	}
	stolen := v.pending[len(v.pending)-take:]
	v.pending = v.pending[:len(v.pending)-take]
	m := &s.ms[i]
	m.pending = append(m.pending, stolen...)
	for _, j := range stolen {
		s.moved[j] = true
	}
	s.stats.Steals++
	if s.stats.FirstStealTime == -1 {
		s.stats.FirstStealTime = s.sim.Now()
	}
	if met := s.cfg.Metrics; met != nil {
		met.Steals.Inc()
		met.JobsStolen.Add(int64(take))
		met.StolenPerSteal.Observe(int64(take))
	}
	if sp := s.cfg.Spans; sp != nil {
		since := s.idleSince[i]
		if since < 0 {
			since = s.sim.Now()
		}
		sp.Append(span.Span{
			Parent: s.runSpan,
			Kind:   span.KindSession,
			Tag:    span.TagInitiator,
			Flags:  span.FlagCommitted,
			A:      int32(i),
			B:      int32(victim),
			Start:  since,
			End:    s.sim.Now(),
			Value:  int64(take),
		})
	}
	s.stolen += int64(take)
	if tl := s.cfg.Timeline; tl != nil {
		tl.Record(timeline.Point{
			Time:      s.sim.Now(),
			Imbalance: int64(s.left),
			Moves:     s.stolen,
			Messages:  int64(s.stats.Probes),
		})
	}
	s.start(i)
}
