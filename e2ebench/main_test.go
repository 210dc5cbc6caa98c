package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"hetlb/internal/core"
	"hetlb/internal/rng"
	"hetlb/internal/workload"
)

// tinySizes shrink every workload so that a run takes well under a second.
var tinySizes = sizes{
	PaperM1: 8, PaperM2: 4, PaperN: 96, PaperSteps: 30,
	TypedM: 16, TypedN: 128, TypedK: 3,
	ConvM1: 8, ConvM2: 4, ConvN: 96,
	ConvEpochs: 20, TypedEvery: 4,
	ScaleM1: 64, ScaleM2: 32, ScaleN: 2048, ScaleEpochs: 5, ScaleHi: 100,
	PaperRate: 10, ConvRate: 8, ScaleRate: 2,
}

var endToEndUnits = map[string]string{
	"setup_s": "s", "solve_s": "s", "total_s": "s", "sessions_per_s": "1/s",
	"instance_ms_p50": "ms", "peak_heap_mb": "MB",
	"cmax_ratio": "ratio", "exchanges_per_machine": "count", "moves_per_job": "count",
	"unconverged_frac": "frac",
}

var perLayerUnits = map[string]string{
	"workload.gen_s": "s", "core.place_s": "s", "shardgossip.new_s": "s",
	"central.reference_s": "s", "shardgossip.snapshot_s": "s", "core.validate_s": "s",
	"shardgossip.epoch_ms_p50": "ms", "shardgossip.epoch_ms_p99": "ms",
	"shardgossip.cross_frac": "frac", "shardgossip.parallel_efficiency": "frac",
	"shardgossip.detect_s": "s", "shardgossip.detect_checks": "count",
	"shardgossip.detect_kernel_calls": "count", "shardgossip.detect_useful_frac": "frac",
	"shardgossip.changed_frac": "frac", "shardgossip.moves_per_session": "count",
	"gossip.run_s": "s", "gossip.step_ns": "ns",
	"protocol.kernel_calls": "count", "protocol.kernel_busy_s": "s",
	"protocol.kernel_ns_p50": "ns", "protocol.kernel_ns_p99": "ns",
	"protocol.union_jobs_mean": "count", "trace_overhead_frac": "frac",
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runTiny runs one workload at tiny sizes and returns its output and the
// parsed result line.
func runTiny(t *testing.T, name, trace string) (string, result) {
	t.Helper()
	var out, errs bytes.Buffer
	code := run([]string{"--workload", name, "--seed", "7", "--seconds", "1", "--trace", trace}, &out, &errs, tinySizes)
	if code != 0 {
		t.Fatalf("%s trace %s: exit %d\nstdout:\n%s\nstderr:\n%s", name, trace, code, out.String(), errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", name, err)
	}
	if len(raw) != 4 {
		t.Fatalf("%s: result keys %v, want correct, attempted, failed, metrics", name, raw)
	}
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("%s: result %+v", name, r)
	}
	return out.String(), r
}

func checkMetrics(t *testing.T, name, out string, r result, want map[string]string) {
	t.Helper()
	if len(r.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, want %d", name, len(r.Metrics), len(want))
	}
	for m, unit := range want {
		got, ok := r.Metrics[m]
		if !ok || got.Unit != unit {
			t.Errorf("%s: metric %s = %+v, want unit %s", name, m, got, unit)
		}
		if !strings.Contains(out, m+" ") || !strings.Contains(out, " "+unit+"\n") {
			t.Errorf("%s: %s with unit %s not printed", name, m, unit)
		}
	}
}

func TestEndToEndMetricsAndDeterminism(t *testing.T) {
	for _, name := range []string{"paper", "converge", "scale"} {
		out, first := runTiny(t, name, "0")
		checkMetrics(t, name, out, first, endToEndUnits)
		for _, line := range []string{"host {", "\ninstance_ms_p99 ", "\ninvalid_frac "} {
			if !strings.Contains(out, line) {
				t.Errorf("%s: %q missing:\n%s", name, line, out)
			}
		}
		for m, v := range first.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s: %s = %g, want > 0", name, m, v.Value)
			}
		}
		// The paper's figures count steps ÷ machines; each system runs
		// PaperSteps of them.
		if got := first.Metrics["exchanges_per_machine"].Value; name == "paper" && got != float64(tinySizes.PaperSteps) {
			t.Errorf("paper: exchanges_per_machine %g, want %d", got, tinySizes.PaperSteps)
		}
		_, second := runTiny(t, name, "0")
		for _, m := range []string{"exchanges_per_machine", "moves_per_job", "cmax_ratio", "unconverged_frac"} {
			if a, b := first.Metrics[m].Value, second.Metrics[m].Value; a != b {
				t.Errorf("%s: %s differs across runs of one seed: %g vs %g", name, m, a, b)
			}
		}
	}
}

func TestTracedRunLayers(t *testing.T) {
	for _, name := range []string{"paper", "converge", "scale"} {
		out, r := runTiny(t, name, "1")
		checkMetrics(t, name, out, r, perLayerUnits)
		for _, row := range rowNames {
			if !strings.Contains(out, row+" ") {
				t.Errorf("%s: layer row %s missing", name, row)
			}
		}
		detect := r.Metrics["shardgossip.detect_s"].Value
		switch name {
		case "paper":
			if r.Metrics["gossip.run_s"].Value <= 0 || r.Metrics["shardgossip.epoch_ms_p50"].Value != 0 {
				t.Errorf("paper: gossip.run_s %v, epoch_ms_p50 %v", r.Metrics["gossip.run_s"], r.Metrics["shardgossip.epoch_ms_p50"])
			}
		case "converge":
			if detect <= 0 || r.Metrics["shardgossip.detect_kernel_calls"].Value <= 0 {
				t.Errorf("converge: detect_s %g, want > 0", detect)
			}
		case "scale":
			if detect != 0 || r.Metrics["shardgossip.parallel_efficiency"].Value <= 0 {
				t.Errorf("scale: detect_s %g, parallel_efficiency %v", detect, r.Metrics["shardgossip.parallel_efficiency"])
			}
		}
	}
}

func TestValidateRejectsWrongMakespan(t *testing.T) {
	tc := workload.UniformTwoCluster(rng.New(1), 3, 2, 20, 1, 10)
	a := core.RoundRobin(tc)
	if err := validate(a, a.Makespan(), a.Makespan()); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	if err := validate(a, a.Makespan()+1, a.Makespan()); err == nil {
		t.Fatal("wrong reported makespan accepted")
	}
	a.Unassign(0)
	if err := validate(a, a.Makespan(), a.Makespan()); err == nil {
		t.Fatal("schedule with an unplaced job accepted")
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "paper", "--seconds", "0"},
		{"--workload", "paper", "--trace", "2"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs, tinySizes); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

func TestCoveredIsUnionOfIntervals(t *testing.T) {
	k := &kernelLog{start: []int64{10, 15, 40, 5}, end: []int64{20, 30, 50, 8}}
	// [10,30] ∪ [40,50] ∪ [5,8], clipped to [6, 45]: 2 + 20 + 5.
	if got := k.covered(0, 4, 6, 45); got != 27 {
		t.Fatalf("covered = %d, want 27", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h histogram
	for v := int64(1); v <= 1000; v++ {
		h.add(v * 100)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 100000
		if got := h.quantile(q); got < want*0.96 || got > want*1.04 {
			t.Errorf("quantile(%g) = %g, want within 4%% of %g", q, got, want)
		}
	}
}

func TestHarrellDavisQuantile(t *testing.T) {
	var xs []float64
	for v := 1; v <= 999; v++ {
		xs = append(xs, float64(v))
	}
	if got := hdQuantile(xs, 0.5); math.Abs(got-500) > 1e-6 {
		t.Errorf("median of 1..999 = %g, want 500", got)
	}
	if got := hdQuantile(xs, 0.99); math.Abs(got-990) > 1 {
		t.Errorf("p99 of 1..999 = %g, want ≈990", got)
	}
	if got := hdQuantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("p99 of one sample = %g, want 7", got)
	}
}

func TestFinishSplitsTailAtTheSnapshot(t *testing.T) {
	// Two checks of two calls each around a snapshot from 30 to 80, after a
	// barrier at 10; Run returns at 100.
	tr := &tracer{}
	k := &kernelLog{tr: tr, start: []int64{10, 20, 80, 90}, end: []int64{15, 30, 85, 95}}
	k.seq.Store(4)
	o := &barrierClock{tr: tr, k: k, boundary: 10}
	o.finish(100, false)
	if tr.snapshot != 50 || tr.detect != 40 || tr.detectChecks != 2 || tr.detectCalls != 4 {
		t.Fatalf("snapshot %d, detect %d over %d checks of %d calls; want 50, 40, 2, 4",
			tr.snapshot, tr.detect, tr.detectChecks, tr.detectCalls)
	}
	if busy := tr.self[rowProtocolDetect]; busy != 25 {
		t.Fatalf("detection kernel time %d, want 25", busy)
	}
}

// TestSlowerKindMovesTimes slows only the rare kind of instance (one in
// eight, as typed MJTB on converge) and checks that solve_s, total_s,
// setup_s and instance_ms_p50 all move with it.
func TestSlowerKindMovesTimes(t *testing.T) {
	mk := func(slow time.Duration) pass {
		var p pass
		for i := 0; i < 64; i++ {
			o := outcome{setup: time.Millisecond, solve: 10 * time.Millisecond, total: 12 * time.Millisecond,
				sessions: 100, machines: 10, jobs: 10, systems: 1, converged: true}
			if i%8 == 0 {
				o.kind = kindTyped
				o.setup += slow
				o.solve += slow
				o.total += 2 * slow
			}
			p.out = append(p.out, o)
		}
		return p
	}
	value := func(ms []metric, name string) float64 {
		for _, m := range ms {
			if m.Name == name {
				return m.Value
			}
		}
		t.Fatalf("no metric %s", name)
		return 0
	}
	base, slow := mk(0).endToEnd(), mk(5*time.Millisecond).endToEnd()
	for name, want := range map[string]float64{
		"solve_s": 8 * 0.005, "total_s": 8 * 0.010, "setup_s": 0.005 / 8, "instance_ms_p50": 10.0 / 8,
	} {
		if got := value(slow, name) - value(base, name); math.Abs(got-want) > 1e-9 {
			t.Errorf("%s moved by %g, want %g", name, got, want)
		}
	}
}
