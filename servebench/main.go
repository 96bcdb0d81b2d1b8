// Command servebench is the serving benchmark of mte4jni: it starts the
// daemon in process on a loopback listener, drives /run with seeded traffic
// mixes (workloads), checks every reply against an oracle, and reports
// client-side end-to-end metrics — or, with -trace 1, per-layer metrics from
// the daemon's response spans, /metrics deltas and a traced replay that
// calls each layer directly.
//
//	go run . -workload inline -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The lines before it list every metric with its sample count and the host.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mte4jni/internal/analysis"
	"mte4jni/internal/pool"
	"mte4jni/internal/server"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string // "" = keep spans in memory only
}

// metric is one reported number.
type metric struct {
	Name    string
	Value   float64
	Unit    string
	Samples int
}

// runReport is everything one run measured.
type runReport struct {
	attempted, failed int
	metrics           []metric
	// infos are printed with the metrics but left out of the result object:
	// numbers BENCHMARK.json cannot bound (see CHANGES.md).
	infos []metric
	notes []string
}

func (r *runReport) add(name string, value float64, unit string, samples int) {
	r.metrics = append(r.metrics, metric{Name: name, Value: value, Unit: unit, Samples: samples})
}

func (r *runReport) info(name string, value float64, unit string, samples int) {
	r.infos = append(r.infos, metric{Name: name, Value: value, Unit: unit, Samples: samples})
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "traffic mix: inline, kernels or hostile; all runs each of them untraced, then traced")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds (closed loop, open loop, and with -trace 1 the replay)")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
	flag.StringVar(&o.traceDir, "trace-dir", filepath.Join(".bench_build", "servebench"), "directory the traced run writes its spans to (empty: do not write)")
	flag.Parse()
	if o.workload == "" || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: servebench -workload inline|kernels|hostile|all -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	o.trace = trace == 1
	runs := []options{o}
	if o.workload == "all" {
		runs = nil
		for _, name := range workloadNames {
			for _, traced := range []bool{false, true} {
				r := o
				r.workload, r.trace = name, traced
				runs = append(runs, r)
			}
		}
	}
	ctx := context.Background()
	for _, r := range runs {
		rep, err := run(ctx, r)
		if err == nil {
			err = printReport(os.Stdout, r, rep)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "servebench:", err)
			os.Exit(1)
		}
	}
}

func daemonConfig(s *spec) server.Config {
	return server.Config{
		Pool: pool.Config{
			MaxSessions: s.Daemon.MaxSessions,
			Shards:      s.Daemon.Shards,
			HeapSize:    uint64(s.Daemon.HeapSizeMiB) << 20,
		},
		ScreenCacheSize: s.Daemon.ScreenCacheSize,
		TemporalPolicy:  analysis.TemporalReject,
	}
}

// Shares of -seconds given to each phase.
const (
	closedShare      = 0.3
	openShare        = 0.7
	tracedOpenShare  = 0.2
	maxClosedRPS     = 20000 // sizes the closed-loop stream; never reached
	openStreamMargin = 1.5
	// Untraced loops are cut into this many windows each.
	closedWindows = 7
	openWindows   = 5
)

func run(ctx context.Context, o options) (*runReport, error) {
	s, err := loadSpec()
	if err != nil {
		return nil, err
	}
	ws, ok := s.Workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (inline, kernels, hostile)", o.workload)
	}
	w, err := buildWorkload(o.workload, o.seed, s)
	if err != nil {
		return nil, err
	}
	cfg := daemonConfig(s)
	conns := s.Daemon.Connections
	closedDur := time.Duration(o.seconds * closedShare * float64(time.Second))
	openDur := time.Duration(o.seconds * openShare * float64(time.Second))
	if o.trace {
		openDur = time.Duration(o.seconds * tracedOpenShare * float64(time.Second))
	}
	closedSeq := w.stream(o.seed, streamClosed, int(maxClosedRPS*closedDur.Seconds())+1)
	nOpen := int(ws.OpenLoopRPS*openDur.Seconds()*openStreamMargin) + 16
	openSeq := w.stream(o.seed, streamOpen, nOpen)
	due := arrivals(o.seed, ws.OpenLoopRPS, nOpen)

	rep := &runReport{}
	// Set-up: a fresh daemon, warmed until every scheme has sessions and the
	// screen cache is full. Repeated and reported as the median; only the
	// last daemon is measured.
	repeats := s.SetupRepeats
	if o.trace {
		repeats = 1
	}
	var setups []float64
	var d *daemon
	for i := 0; i < repeats; i++ {
		// Each set-up starts from a collected heap, not from the garbage of
		// the one before.
		runtime.GC()
		t0 := time.Now()
		d, err = startDaemon(cfg, conns)
		if err != nil {
			return nil, err
		}
		n, bad, err := d.warmUp(ctx, w)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		rep.attempted += n
		rep.failed += bad
		if i < repeats-1 {
			if err := d.stop(ctx); err != nil {
				return nil, err
			}
		}
	}

	// Measured traffic. The closed loop runs as consecutive windows whose
	// median is reported, so a short stall on a shared host moves one
	// window, not the result; the open loop is one arrival process, windowed
	// afterwards by due time.
	windows := closedWindows
	if o.trace {
		windows = 1
	}
	runtime.GC()
	rss := startRSSSampler()
	var closed []*phase
	for k, from := 0, 0; k < windows; k++ {
		ph, err := d.closedLoop(ctx, w, closedSeq, from, closedDur/time.Duration(windows))
		if err != nil {
			return nil, err
		}
		closed = append(closed, ph)
		from += len(ph.results)
	}
	op, err := d.openLoop(ctx, w, openSeq, due, openDur)
	if err != nil {
		return nil, err
	}
	peakRSS := rss.peakMB()
	if err := d.stop(ctx); err != nil {
		return nil, err
	}
	for _, ph := range append(closed, op) {
		rep.attempted += len(ph.results)
		rep.failed += ph.failures(w)
		rep.notes = append(rep.notes, ph.mismatches(w, 5)...)
	}

	if !o.trace {
		endToEnd(rep, w, closed, op, openDur, setups, peakRSS)
		return rep, nil
	}
	cp := closed[0]

	// Traced replay of exactly the requests the closed loop sent.
	runtime.GC()
	tr, err := replay(ctx, cfg, w, closedSeq[:len(cp.results)], conns)
	if err != nil {
		return nil, err
	}
	rep.attempted += len(tr.outcomes)
	rep.failed += tr.errs
	byPos := make([]outcome, len(cp.results))
	for i := range cp.results {
		byPos[cp.results[i].pos] = cp.results[i].got
	}
	for i, got := range tr.outcomes {
		if !got.matches(byPos[i]) || !byPos[i].matches(got) {
			rep.failed++
			if len(rep.notes) < 10 {
				rep.notes = append(rep.notes, fmt.Sprintf("traced request %d: HTTP %v, traced %v", i, byPos[i], got))
			}
		}
	}
	perLayer(rep, w, cp, op, tr)
	if o.traceDir != "" {
		path := filepath.Join(o.traceDir, fmt.Sprintf("spans-%s.jsonl", o.workload))
		if err := writeSpans(path, tr.spans); err != nil {
			return nil, err
		}
		rep.notes = append(rep.notes, fmt.Sprintf("spans: %d written to %s", len(tr.spans), path))
	}
	return rep, nil
}

func printReport(f *os.File, o options, rep *runReport) error {
	fmt.Fprintf(f, "host num_cpu=%d gomaxprocs=%d go=%s os=%s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(f, "run workload=%s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	for _, n := range rep.notes {
		fmt.Fprintln(f, "note", n)
	}
	failFrac := ratio(float64(rep.failed), float64(rep.attempted))
	fmt.Fprintf(f, "info   %-32s %14.6g %-6s n=%d\n", "fail_frac", failFrac, "frac", rep.attempted)
	for _, m := range rep.infos {
		fmt.Fprintf(f, "info   %-32s %14.6g %-6s n=%d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]map[string]any{}}
	for _, m := range rep.metrics {
		fmt.Fprintf(f, "metric %-32s %14.6g %-6s n=%d\n", m.Name, m.Value, m.Unit, m.Samples)
		out.Metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(f, string(b))
	return err
}
