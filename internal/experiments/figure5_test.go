package experiments

import (
	"testing"

	"hetlb/internal/core"
	"hetlb/internal/gossip"
	"hetlb/internal/protocol"
	"hetlb/internal/rng"
	"hetlb/internal/workload"
)

func TestThresholdWatcher(t *testing.T) {
	// From an all-on-one-machine start, the makespan eventually falls
	// below a generous threshold; the watcher must fire exactly once and
	// snapshot exchange counts.
	gen := rng.New(3)
	id := workload.UniformIdentical(gen, 6, 48, 1, 100)
	var total core.Cost
	for j := 0; j < 48; j++ {
		total += id.Size(j)
	}
	threshold := total/6 + 150 // mean + 1.5×pmax
	w := &thresholdWatcher{Threshold: threshold}
	a := core.AllOnMachine(id, 0)
	e := gossip.New(protocol.SameCost{Model: id}, a, gossip.Config{Seed: 4})
	e.Observe(w)
	e.Run(3000, false)
	if !w.Crossed {
		t.Fatalf("threshold %d never crossed; final=%d", threshold, a.Makespan())
	}
	if len(w.ExchangesAtCross) != 6 {
		t.Fatal("exchange snapshot missing")
	}
	epm, ok := w.ExchangesPerMachine(6)
	if !ok || epm <= 0 {
		t.Fatalf("ExchangesPerMachine = (%v, %v)", epm, ok)
	}
	// The snapshot must not keep growing after the crossing.
	snap := append([]int(nil), w.ExchangesAtCross...)
	e.Run(100, false)
	for k := range snap {
		if snap[k] != w.ExchangesAtCross[k] {
			t.Fatal("snapshot mutated after crossing")
		}
	}
}

func TestThresholdWatcherNeverCrossed(t *testing.T) {
	w := &thresholdWatcher{Threshold: 0} // unreachable with positive loads
	runObserved(50, w)
	if w.Crossed {
		t.Fatal("crossed impossible threshold")
	}
	if _, ok := w.ExchangesPerMachine(6); ok {
		t.Fatal("ExchangesPerMachine should report not-ok")
	}
}
