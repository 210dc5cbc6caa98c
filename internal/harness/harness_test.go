package harness

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"hetlb/internal/obs"
	"hetlb/internal/obs/span"
)

// simulate is a stand-in replication body: a few thousand RNG draws reduced
// to one number, so any stream mixup or result misplacement changes the
// output.
func simulate(rep *Rep) (uint64, error) {
	var acc uint64
	for k := 0; k < 2000; k++ {
		acc ^= rep.RNG.Uint64() + uint64(rep.Index)
	}
	return acc, nil
}

func TestMapDeterministicAcrossParallelism(t *testing.T) {
	const n = 64
	ref, err := Map(Sequential(), 42, n, simulate)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 4, 8, runtime.GOMAXPROCS(0)} {
		got, err := Map(Options{Parallelism: p}, 42, n, simulate)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("parallelism %d changed the results", p)
		}
	}
}

func TestMapResultsAreIndexAddressed(t *testing.T) {
	out, err := Map(Options{Parallelism: 4}, 1, 32, func(rep *Rep) (int, error) {
		return rep.Index * 10, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*10 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestMapZeroAndNegativeCounts(t *testing.T) {
	out, err := Map(Options{}, 1, 0, simulate)
	if err != nil || len(out) != 0 {
		t.Fatalf("n=0: out=%v err=%v", out, err)
	}
	if _, err := Map(Options{}, 1, -1, simulate); err == nil {
		t.Fatal("n=-1 accepted")
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	var cur, peak atomic.Int64
	_, err := Map(Options{Parallelism: 3}, 7, 50, func(rep *Rep) (int, error) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 3 {
		t.Fatalf("observed %d concurrent replications with Parallelism 3", p)
	}
}

func TestMapErrorCancelsAndReportsLowestIndex(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	_, err := Map(Sequential(), 1, 100, func(rep *Rep) (int, error) {
		ran.Add(1)
		if rep.Index == 5 {
			return 0, boom
		}
		return rep.Index, nil
	})
	var he *Error
	if !errors.As(err, &he) || he.Index != 5 || !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if ran.Load() != 6 {
		t.Fatalf("sequential run executed %d replications after failure at 5", ran.Load())
	}
}

func TestMapContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	_, err := Map(Options{Parallelism: 2, Context: ctx}, 1, 1000, func(rep *Rep) (int, error) {
		if ran.Add(1) == 10 {
			cancel()
		}
		time.Sleep(100 * time.Microsecond)
		return 0, nil
	})
	if err == nil {
		t.Fatal("cancelled run reported success")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if ran.Load() == 1000 {
		t.Fatal("cancellation did not stop the pool")
	}
}

func TestMapTimeout(t *testing.T) {
	start := time.Now()
	_, err := Map(Options{Parallelism: 2, Timeout: 20 * time.Millisecond}, 1, 1000,
		func(rep *Rep) (int, error) {
			time.Sleep(2 * time.Millisecond)
			return 0, nil
		})
	if err == nil {
		t.Fatal("timed-out run reported success")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("timeout not enforced (took %v)", el)
	}
}

func TestMapKeepsCompletedResultsOnError(t *testing.T) {
	out, err := Map(Sequential(), 1, 10, func(rep *Rep) (int, error) {
		if rep.Index == 7 {
			return 0, errors.New("late failure")
		}
		return rep.Index + 1, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	for i := 0; i < 7; i++ {
		if out[i] != i+1 {
			t.Fatalf("completed result %d lost: %v", i, out[i])
		}
	}
}

func TestMapMetricsAndTrace(t *testing.T) {
	reg := obs.NewRegistry()
	rec := span.NewRecorder(1 << 10)
	const n = 20
	_, err := Map(Options{Parallelism: 4, Metrics: reg, Spans: rec}, 3, n, simulate)
	if err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter("harness_replications_started_total", "").Value(); v != n {
		t.Fatalf("started = %d", v)
	}
	if v := reg.Counter("harness_replications_completed_total", "").Value(); v != n {
		t.Fatalf("completed = %d", v)
	}
	if v := reg.Counter("harness_replications_failed_total", "").Value(); v != 0 {
		t.Fatalf("failed = %d", v)
	}
	if v := reg.Histogram("harness_replication_wall_ns", "", obs.Pow2Bounds(40)).Count(); v != n {
		t.Fatalf("wall histogram has %d observations", v)
	}
	// One replication span per replication, merged in index order and
	// none flagged as failed.
	reps := 0
	for _, sp := range rec.Spans() {
		if sp.Kind != span.KindReplication {
			continue
		}
		if sp.A != int32(reps) || sp.Flags&span.FlagFailed != 0 {
			t.Fatalf("replication span %d = %+v", reps, sp)
		}
		reps++
	}
	if reps != n {
		t.Fatalf("trace has %d replication spans, want %d", reps, n)
	}
}

func TestMapFailureMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	_, err := Map(Options{Parallelism: 1, Metrics: reg}, 1, 5, func(rep *Rep) (int, error) {
		if rep.Index == 2 {
			return 0, fmt.Errorf("no")
		}
		return 0, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if v := reg.Counter("harness_replications_failed_total", "").Value(); v != 1 {
		t.Fatalf("failed = %d", v)
	}
}

func TestMapProgressReachesTotal(t *testing.T) {
	var last atomic.Int64
	var calls atomic.Int64
	_, err := Map(Options{
		Parallelism: 4,
		OnProgress: func(done, total int) {
			calls.Add(1)
			if total != 30 {
				t.Errorf("total = %d", total)
			}
			last.Store(int64(done))
		},
	}, 9, 30, simulate)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 30 || last.Load() != 30 {
		t.Fatalf("progress calls=%d last=%d", calls.Load(), last.Load())
	}
}

func TestSubstreamsUnaffectedByWorkerCount(t *testing.T) {
	// The replication body records the first draw of its stream; that draw
	// must be a pure function of (seed, index).
	first := func(p int) []uint64 {
		out, err := Map(Options{Parallelism: p}, 77, 16, func(rep *Rep) (uint64, error) {
			return rep.RNG.Uint64(), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if !reflect.DeepEqual(first(1), first(8)) {
		t.Fatal("first draws depend on worker count")
	}
}
