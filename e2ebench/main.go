// Command e2ebench is hetlb's end-to-end benchmark. It runs one workload
// (paper, converge or scale: see README.md) as a closed loop of instances on
// one goroutine — generate, place, build the engine, balance, compute the
// centralized reference, validate — checks every schedule, and prints every
// metric by name and unit. The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with tracing
// off. With --trace 1 it runs the same instances once untraced and once
// traced, prints the per-module layer table of the traced pass and reports
// the per-layer metrics. Any schedule that fails validation makes it exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, benchSizes))
}

// layerTolerance is how far, as a share of the traced pass's total_s, the
// layer table's self-time rows may sum away from total_s.
const layerTolerance = 0.02

func run(args []string, stdout, stderr io.Writer, sz sizes) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper, converge or scale")
	seed := fs.Uint64("seed", 1, "seed from which every instance is generated")
	seconds := fs.Float64("seconds", 10, "run length; sets the instance count (see README.md)")
	trace := fs.Int("trace", 0, "1 prints the layer table and the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: want --workload paper|converge|scale, --seconds > 0, --trace 0|1\n")
		return 2
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	h := fingerprint()
	hj, _ := json.Marshal(h)
	fmt.Fprintf(stdout, "host %s\n", hj)

	var rep report
	if *trace == 0 {
		count := instances(*name, sz, *seconds)
		p := measure(wl, sz, *seed, count, nil, nproc)
		fmt.Fprintf(stdout, "workload %s seed %d instances %d shards %d\n", *name, *seed, count, nproc)
		rep = p.report()
		rep.metrics = p.endToEnd()
		printMetrics(stdout, rep.metrics)
		// Printed, not part of the result line: invalid_frac is 0 unless the
		// run fails (failed/attempted carry it), and the tail of instance
		// times moves with the host's load from run to run far more than
		// any bound a regression gate could use (see README.md).
		fmt.Fprintf(stdout, "%-34s %14g %s (over %d instances)\n",
			"instance_ms_p99", hdQuantile(p.instanceMS(), 0.99), "ms", len(p.out))
		fmt.Fprintf(stdout, "%-34s %14g %s (%d of %d schedules failed validation)\n",
			"invalid_frac", float64(rep.Failed)/float64(rep.Attempted), "frac", rep.Failed, rep.Attempted)
	} else {
		count := instances(*name, sz, *seconds/2)
		plain := measure(wl, sz, *seed, count, nil, nproc)
		tr := newTracer()
		traced := measure(wl, sz, *seed, count, tr, nproc)
		fmt.Fprintf(stdout, "workload %s seed %d instances %d shards %d (traced)\n", *name, *seed, count, nproc)
		rep = plain.report()
		rep.add(traced.report())
		efficiency := 0.0
		if *name == "scale" {
			// Results are bit-identical at any shard count. Rerun the first
			// instance at S=nproc and at S=1 back to back, with the host's
			// capacity measured just before (a shared host's second core
			// comes and goes), check both against the untraced pass, and
			// time them for the parallel efficiency.
			c := capacity(nproc)
			many, one := wl(sz, *seed, 0, nil, nproc), wl(sz, *seed, 0, nil, 1)
			base := plain.out[0]
			for _, o := range []outcome{many, one} {
				rep.Attempted++
				if o.err == nil && (o.cmax != base.cmax || o.moves != base.moves) {
					o.err = fmt.Errorf("rerun gives Cmax %d and %d moves, the first pass %d and %d",
						o.cmax, o.moves, base.cmax, base.moves)
				}
				if o.err != nil {
					rep.Failed++
					rep.errs = append(rep.errs, fmt.Errorf("scale rerun: %w", o.err))
				}
			}
			efficiency = one.solve.Seconds() / many.solve.Seconds() / c
			fmt.Fprintf(stdout, "S=1 solve %.3f s, S=%d solve %.3f s, capacity at %d workers %.3f\n",
				one.solve.Seconds(), nproc, many.solve.Seconds(), nproc, c)
		}
		if !printLayers(stdout, stderr, tr, traced.wall) {
			rep.traceBroken = true
		}
		rep.metrics = tr.perLayer(traced.total(), plain.total(), efficiency)
		printMetrics(stdout, rep.metrics)
	}
	rep.Correct = rep.Failed == 0 && !rep.traceBroken
	for _, e := range rep.errs {
		fmt.Fprintf(stderr, "e2ebench: %v\n", e)
	}
	out, _ := json.Marshal(rep)
	fmt.Fprintf(stdout, "%s\n", out)
	if !rep.Correct {
		return 1
	}
	return 0
}

// pass is one closed-loop pass over a workload's instances.
type pass struct {
	out  []outcome
	wall time.Duration // the loop over instances
}

// measure runs count instances, after one collection so that the first
// starts from a collected heap. The garbage an instance leaves is collected
// while later ones run, and that time counts in theirs.
func measure(wl workloadFunc, sz sizes, seed uint64, count int, tr *tracer, shards int) pass {
	p := pass{out: make([]outcome, 0, count)}
	runtime.GC()
	t0 := time.Now()
	for i := 0; i < count; i++ {
		p.out = append(p.out, wl(sz, seed, i, tr, shards))
	}
	p.wall = time.Since(t0)
	return p
}

// metric is one named measurement with its unit.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

type report struct {
	Correct     bool `json:"correct"`
	Attempted   int  `json:"attempted"`
	Failed      int  `json:"failed"`
	metrics     []metric
	errs        []error
	traceBroken bool
}

// MarshalJSON writes the result line: correct, attempted, failed and the
// metrics keyed by name.
func (r report) MarshalJSON() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.Name] = value{m.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
}

// instanceMS are the instances' times in ms.
func (p pass) instanceMS() []float64 {
	ms := make([]float64, len(p.out))
	for i, o := range p.out {
		ms[i] = float64(o.total) / 1e6
	}
	return ms
}

// total is the summed time of the pass's instances.
func (p pass) total() time.Duration {
	var d time.Duration
	for _, o := range p.out {
		d += o.total
	}
	return d
}

func (p pass) report() report {
	r := report{Attempted: len(p.out)}
	for i, o := range p.out {
		if o.err != nil {
			r.Failed++
			r.errs = append(r.errs, fmt.Errorf("instance %d: %w", i, o.err))
		}
	}
	return r
}

func (r *report) add(o report) {
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	r.errs = append(r.errs, o.errs...)
}

// endToEnd derives the end-to-end metrics of an untraced pass.
func (p pass) endToEnd() []metric {
	n := float64(len(p.out))
	var solve time.Duration
	var sessions, logRatio, systems, exch, moves, unconv float64
	for _, o := range p.out {
		solve += o.solve
		sessions += float64(o.sessions)
		logRatio += o.logRatio
		systems += float64(o.systems)
		if o.machines > 0 {
			exch += float64(o.sessions) / float64(o.machines)
		}
		if o.jobs > 0 {
			moves += float64(o.moves) / float64(o.jobs)
		}
		if !o.converged {
			unconv++
		}
	}
	return []metric{
		{"setup_s", p.stratifiedMedian(func(o outcome) float64 { return o.setup.Seconds() }), "s"},
		{"solve_s", solve.Seconds(), "s"},
		{"total_s", p.total().Seconds(), "s"},
		{"sessions_per_s", sessions / solve.Seconds(), "1/s"},
		{"instance_ms_p50", p.stratifiedMedian(func(o outcome) float64 { return float64(o.total) / 1e6 }), "ms"},
		{"peak_heap_mb", peakRSSMB(), "MB"},
		{"cmax_ratio", math.Exp(logRatio / systems), "ratio"},
		{"exchanges_per_machine", exch / n, "count"},
		{"moves_per_job", moves / n, "count"},
		{"unconverged_frac", unconv / n, "frac"},
	}
}

// stratifiedMedian is the median over the pass's instances of f, taken
// for each kind of instance and weighted by the kind's share of the pass. A
// median over all instances would see only the kind that holds the middle
// instance; this one moves when any kind's instances slow down.
func (p pass) stratifiedMedian(f func(outcome) float64) float64 {
	var byKind [numKinds][]float64
	for _, o := range p.out {
		byKind[o.kind] = append(byKind[o.kind], f(o))
	}
	var s float64
	for _, xs := range byKind {
		if len(xs) > 0 {
			s += float64(len(xs)) / float64(len(p.out)) * hdQuantile(xs, 0.5)
		}
	}
	return s
}

// perLayer derives the per-layer metrics of a traced pass; wall and
// plainWall are the wall times of the traced and the untraced pass over the
// same instances, and efficiency the measured parallel efficiency (0 when
// the workload does not measure it).
func (t *tracer) perLayer(wall, plainWall time.Duration, efficiency float64) []metric {
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	frac := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	k := &t.kernel
	return []metric{
		{"workload.gen_s", sec(t.totals[totGen]), "s"},
		{"core.place_s", sec(t.totals[totPlace]), "s"},
		{"shardgossip.new_s", sec(t.totals[totShardNew]), "s"},
		{"central.reference_s", sec(t.totals[totReference]), "s"},
		{"shardgossip.snapshot_s", sec(t.snapshot), "s"},
		{"core.validate_s", sec(t.totals[totValidate]), "s"},
		{"shardgossip.epoch_ms_p50", hdQuantile(t.epochMS, 0.5), "ms"},
		{"shardgossip.epoch_ms_p99", hdQuantile(t.epochMS, 0.99), "ms"},
		{"shardgossip.cross_frac", frac(t.cross, t.sessions), "frac"},
		{"shardgossip.parallel_efficiency", efficiency, "frac"},
		{"shardgossip.detect_s", sec(t.detect), "s"},
		{"shardgossip.detect_checks", float64(t.detectChecks), "count"},
		{"shardgossip.detect_kernel_calls", float64(t.detectCalls), "count"},
		{"shardgossip.detect_useful_frac", frac(t.detectUseful, t.detectChecks), "frac"},
		{"shardgossip.changed_frac", frac(t.changed, t.sessions), "frac"},
		{"shardgossip.moves_per_session", frac(t.moves, t.sessions), "count"},
		{"gossip.run_s", sec(t.gossipRun), "s"},
		{"gossip.step_ns", t.stepNS.quantile(0.5), "ns"},
		{"protocol.kernel_calls", float64(k.calls.Load()), "count"},
		{"protocol.kernel_busy_s", sec(k.busy.Load()), "s"},
		{"protocol.kernel_ns_p50", k.ns.quantile(0.5), "ns"},
		{"protocol.kernel_ns_p99", k.ns.quantile(0.99), "ns"},
		{"protocol.union_jobs_mean", frac(k.unionJobs.Load(), k.unionCalls.Load()), "count"},
		{"trace_overhead_frac", wall.Seconds()/plainWall.Seconds() - 1, "frac"},
	}
}

// printLayers prints the layer table of a traced pass and reports whether
// its rows sum to the pass's total_s within layerTolerance.
func printLayers(stdout, stderr io.Writer, t *tracer, wall time.Duration) bool {
	total := wall.Seconds()
	fmt.Fprintf(stdout, "%-22s %12s %8s\n", "layer (self time)", "s", "share")
	var sum float64
	for r := row(0); r < numRows; r++ {
		v := float64(t.self[r]) / 1e9
		sum += v
		fmt.Fprintf(stdout, "%-22s %12.6f %7.2f%%\n", rowNames[r], v, 100*v/total)
	}
	rest := total - sum
	fmt.Fprintf(stdout, "%-22s %12.6f %7.2f%%\n", "unattributed", rest, 100*rest/total)
	fmt.Fprintf(stdout, "%-22s %12.6f %7.2f%%  (rows must sum to total_s within %g%%)\n",
		"total_s", total, 100.0, 100*layerTolerance)
	ok := true
	if math.Abs(rest) > layerTolerance*total {
		fmt.Fprintf(stderr, "e2ebench: layer rows sum to %.6f s, total_s is %.6f s\n", sum, total)
		ok = false
	}
	if t.overflow > 0 {
		fmt.Fprintf(stderr, "e2ebench: %d kernel calls missing from the interval log\n", t.overflow)
		ok = false
	}
	return ok
}

func printMetrics(w io.Writer, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(w, "%-34s %14g %s\n", m.Name, m.Value, m.Unit)
	}
}

// peakRSSMB is the process's peak resident set in MiB. The benchmark holds
// little besides the Go heap, so this is its peak heap footprint.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
