package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"

	"hetlb"
)

// obsFlags is the shared observability flag set: any subcommand that calls
// register gains --metrics-out / --trace-out / --span-out / --timeline-out /
// --pprof / --debug-addr.
type obsFlags struct {
	metricsOut     string
	metricsJSON    bool
	traceOut       string
	spanOut        string
	spanCap        int
	timelineOut    string
	timelineFormat string
	timelineCap    int
	pprofAddr      string
	debugAddr      string
}

func (o *obsFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&o.metricsOut, "metrics-out", "", "write run metrics to this file after the run (\"-\" = stdout)")
	fs.BoolVar(&o.metricsJSON, "metrics-json", false, "emit metrics as JSON instead of Prometheus text")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the span trace as Chrome trace_event JSON to this file after the run (\"-\" = stdout)")
	fs.StringVar(&o.spanOut, "span-out", "", "write the causal span trace (JSONL) to this file after the run (\"-\" = stdout)")
	fs.IntVar(&o.spanCap, "span-cap", 1<<18, "span trace ring capacity for --span-out and --trace-out (oldest spans overwritten beyond it)")
	fs.StringVar(&o.timelineOut, "timeline-out", "", "write the convergence timeline to this file after the run (\"-\" = stdout)")
	fs.StringVar(&o.timelineFormat, "timeline-format", "csv", "timeline format: csv or json")
	fs.IntVar(&o.timelineCap, "timeline-cap", 1<<12, "timeline point budget (resolution halves beyond it)")
	fs.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for the run's duration")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "serve the live debug endpoints (/metrics, /timeline.json, /spans.jsonl, /debug/pprof/) on this address for the run's duration")
}

// obsSinks bundles the observability collectors a subcommand hands to the
// library. A nil field means the corresponding output was not requested.
type obsSinks struct {
	Metrics  *hetlb.MetricsRegistry
	Spans    *hetlb.SpanTrace
	Timeline *hetlb.Timeline
}

// setup builds the collectors the flags ask for (nil when the corresponding
// output is disabled) and starts the pprof and debug servers if requested.
// --debug-addr forces every collector on, so the live endpoints always have
// something to serve.
func (o *obsFlags) setup() (*obsSinks, error) {
	switch o.timelineFormat {
	case "csv", "json":
	default:
		return nil, fmt.Errorf("unknown timeline format %q (want csv or json)", o.timelineFormat)
	}
	s := &obsSinks{}
	debug := o.debugAddr != ""
	if o.metricsOut != "" || debug {
		s.Metrics = hetlb.NewMetricsRegistry()
	}
	if o.spanOut != "" || o.traceOut != "" || debug {
		if o.spanCap <= 0 {
			return nil, fmt.Errorf("span capacity must be positive")
		}
		s.Spans = hetlb.NewSpanTrace(o.spanCap)
	}
	if o.timelineOut != "" || debug {
		if o.timelineCap < 2 {
			return nil, fmt.Errorf("timeline capacity must be at least 2")
		}
		s.Timeline = hetlb.NewTimeline(o.timelineCap)
	}
	if o.pprofAddr != "" {
		// Bind synchronously so an unusable address fails the command
		// instead of silently running without profiling.
		ln, err := net.Listen("tcp", o.pprofAddr)
		if err != nil {
			return nil, fmt.Errorf("pprof server: %w", err)
		}
		go http.Serve(ln, nil)
		fmt.Fprintf(os.Stderr, "pprof: serving on http://%s/debug/pprof/\n", ln.Addr())
	}
	if debug {
		ln, err := net.Listen("tcp", o.debugAddr)
		if err != nil {
			return nil, fmt.Errorf("debug server: %w", err)
		}
		go http.Serve(ln, debugMux(s))
		fmt.Fprintf(os.Stderr, "debug: serving on http://%s/ (metrics, timeline, traces, pprof)\n", ln.Addr())
	}
	return s, nil
}

// debugMux serves live snapshots of the run's collectors. Every collector is
// mutex-guarded and snapshots under the lock, so scraping mid-run is safe and
// never perturbs what is being measured beyond the lock hold.
func debugMux(s *obsSinks) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.Metrics.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		s.Metrics.WriteJSON(w)
	})
	mux.HandleFunc("/timeline.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		s.Timeline.WriteJSON(w)
	})
	mux.HandleFunc("/timeline.csv", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/csv")
		s.Timeline.WriteCSV(w)
	})
	mux.HandleFunc("/spans.jsonl", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/jsonl")
		s.Spans.WriteJSONL(w)
	})
	// net/http/pprof registers on the default mux; delegate its subtree.
	mux.Handle("/debug/pprof/", http.DefaultServeMux)
	return mux
}

// flush writes the collected outputs to their destinations. Collectors that
// exist only for the debug server (no -out path) are skipped.
func (o *obsFlags) flush(s *obsSinks) error {
	if s.Metrics != nil && o.metricsOut != "" {
		err := withOut(o.metricsOut, func(f *os.File) error {
			if o.metricsJSON {
				return s.Metrics.WriteJSON(f)
			}
			return s.Metrics.WritePrometheus(f)
		})
		if err != nil {
			return fmt.Errorf("writing metrics: %w", err)
		}
	}
	if s.Spans != nil && (o.spanOut != "" || o.traceOut != "") {
		if n := s.Spans.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "spans: ring overflowed, oldest %d spans dropped (raise -span-cap)\n", n)
		}
	}
	if s.Spans != nil && o.spanOut != "" {
		err := withOut(o.spanOut, func(f *os.File) error { return s.Spans.WriteJSONL(f) })
		if err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if s.Spans != nil && o.traceOut != "" {
		err := withOut(o.traceOut, func(f *os.File) error { return s.Spans.WriteChromeTrace(f) })
		if err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	if s.Timeline != nil && o.timelineOut != "" {
		err := withOut(o.timelineOut, func(f *os.File) error {
			if o.timelineFormat == "json" {
				return s.Timeline.WriteJSON(f)
			}
			return s.Timeline.WriteCSV(f)
		})
		if err != nil {
			return fmt.Errorf("writing timeline: %w", err)
		}
	}
	return nil
}

// withOut runs fn on the named file ("-" = stdout), creating and closing it
// as needed.
func withOut(path string, fn func(*os.File) error) error {
	if path == "-" {
		return fn(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
