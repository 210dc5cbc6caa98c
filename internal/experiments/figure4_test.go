package experiments

import (
	"testing"

	"hetlb/internal/core"
	"hetlb/internal/gossip"
	"hetlb/internal/protocol"
	"hetlb/internal/rng"
	"hetlb/internal/workload"
)

// runObserved balances 48 jobs piled on one of 6 identical machines for the
// given number of steps with the observers attached.
func runObserved(steps int, obs ...gossip.Observer) *gossip.Engine {
	gen := rng.New(1)
	id := workload.UniformIdentical(gen, 6, 48, 1, 100)
	a := core.AllOnMachine(id, 0)
	e := gossip.New(protocol.SameCost{Model: id}, a, gossip.Config{Seed: 2})
	for _, o := range obs {
		e.Observe(o)
	}
	e.Run(steps, false)
	return e
}

func TestMakespanSeriesSampling(t *testing.T) {
	s := &makespanSeries{SampleEvery: 10}
	runObserved(100, s)
	if len(s.Values) != 10 {
		t.Fatalf("recorded %d samples, want 10", len(s.Values))
	}
	for k, step := range s.Steps {
		if step != k*10 {
			t.Fatalf("sample %d at step %d, want %d", k, step, k*10)
		}
	}
}

func TestMakespanSeriesEveryStep(t *testing.T) {
	s := &makespanSeries{}
	runObserved(25, s)
	if len(s.Values) != 25 {
		t.Fatalf("recorded %d samples, want 25", len(s.Values))
	}
}

func TestMakespanSeriesDecreasesFromPathologicalStart(t *testing.T) {
	s := &makespanSeries{}
	runObserved(300, s)
	if s.Values[len(s.Values)-1] >= s.Values[0] {
		t.Fatalf("makespan did not improve: %d -> %d", s.Values[0], s.Values[len(s.Values)-1])
	}
	if s.Min() > s.Values[0] {
		t.Fatal("Min exceeds first sample")
	}
}

func TestMakespanSeriesMinEmpty(t *testing.T) {
	s := &makespanSeries{}
	if s.Min() != 0 {
		t.Fatal("Min of empty series should be 0")
	}
}
