package mte4jni

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"mte4jni/internal/bench"
	"mte4jni/internal/jni"
	"mte4jni/internal/workloads"
)

// This file drives the paper's §5.4 common-task experiment (Figures 7 and
// 8): the 16 GeekBench-6-style CPU workloads run under each scheme, single
// core and multi core, reporting per-workload performance ratios relative
// to the no-protection scheme.

// WorkloadScale re-exports the workload sizing knob.
type WorkloadScale = workloads.Scale

// Workload scales.
const (
	// ScaleSmall is the test-sized suite.
	ScaleSmall = workloads.ScaleSmall
	// ScaleDefault is the benchmark-sized suite.
	ScaleDefault = workloads.ScaleDefault
)

// GeekbenchOptions parameterizes the suite run.
type GeekbenchOptions struct {
	// Cores is the number of concurrent copies of each workload; 1
	// reproduces Figure 7, runtime.NumCPU() Figure 8. 0 means 1.
	Cores int
	// Scale selects problem sizes (default ScaleDefault).
	Scale WorkloadScale
	// Reps and Warmup control the timing harness (defaults 5 and 1).
	Reps, Warmup int
	// Only limits the run to the named workloads (nil = all 16).
	Only []string
}

func (o *GeekbenchOptions) defaults() {
	if o.Cores == 0 {
		o.Cores = 1
	}
	if o.Reps == 0 {
		o.Reps = 5
	}
	if o.Warmup == 0 {
		o.Warmup = 1
	}
}

// GeekbenchResult holds per-workload performance ratios.
type GeekbenchResult struct {
	// Cores echoes the configured parallelism.
	Cores int
	// Workloads lists sub-item names in run order.
	Workloads []string
	// Ratios maps scheme -> per-workload performance relative to no
	// protection (1.0 = no slowdown; the paper plots these as percentages).
	Ratios map[Scheme][]float64
	// Degradation maps scheme -> overall percent performance degradation
	// (geometric mean), the numbers quoted in §5.4.
	Degradation map[Scheme]float64
}

// Figure renders the result in the shape of the paper's Figure 7 or 8.
func (r *GeekbenchResult) Figure() *bench.Figure {
	title := "Figure 7: single-core performance ratios relative to no protection"
	if r.Cores > 1 {
		title = fmt.Sprintf("Figure 8: multi-core (%d) performance ratios relative to no protection", r.Cores)
	}
	fig := bench.NewFigure(title, "workload")
	fig.Format = func(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
	for _, s := range []Scheme{GuardedCopy, MTESync, MTEAsync} {
		series := fig.AddSeries(s.String())
		for i, name := range r.Workloads {
			series.Add(name, r.Ratios[s][i])
		}
	}
	return fig
}

// geekbenchTime measures one workload under one scheme at the configured
// parallelism: Cores goroutines each drive their own instance of the
// workload against their own thread's env; the measured quantity is the
// wall-clock time until all copies finish, as on a multi-core score run.
func geekbenchTime(scheme Scheme, name string, o GeekbenchOptions) (time.Duration, error) {
	// 32 MiB of Java heap per concurrent copy: the largest kernel (HDR)
	// peaks at ~2.3 MiB at default scale, and guarded copy maps as much
	// again for its copies.
	rt, err := New(Config{Scheme: scheme, HeapSize: uint64(o.Cores) * 32 << 20})
	if err != nil {
		return 0, err
	}
	insts := make([]workloads.Workload, o.Cores)
	envs := make([]*Env, o.Cores)
	for i := 0; i < o.Cores; i++ {
		w, err := workloads.ByName(name, o.Scale)
		if err != nil {
			return 0, err
		}
		env, err := rt.AttachEnv(fmt.Sprintf("worker-%d", i))
		if err != nil {
			return 0, err
		}
		if err := w.Setup(env); err != nil {
			return 0, fmt.Errorf("%s setup under %v: %w", name, scheme, err)
		}
		insts[i], envs[i] = w, env
	}

	var firstErr error
	var errMu sync.Mutex
	run := func() {
		var start, done sync.WaitGroup
		start.Add(1)
		done.Add(o.Cores)
		for i := 0; i < o.Cores; i++ {
			go func(id int) {
				defer done.Done()
				start.Wait()
				fault, err := envs[id].CallNative(name, jni.Regular, insts[id].Run)
				errMu.Lock()
				if fault != nil && firstErr == nil {
					firstErr = fault
				}
				if err != nil && firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
			}(i)
		}
		start.Done()
		done.Wait()
	}
	d := bench.Measure(o.Warmup, o.Reps, run)
	if firstErr != nil {
		return 0, fmt.Errorf("%s under %v: %w", name, scheme, firstErr)
	}
	for i, w := range insts {
		if err := w.Verify(); err != nil {
			return 0, fmt.Errorf("%s under %v (copy %d): %w", name, scheme, i, err)
		}
	}
	return d, nil
}

// RunGeekbench runs the suite and returns performance ratios.
func RunGeekbench(o GeekbenchOptions) (*GeekbenchResult, error) {
	o.defaults()
	names := o.Only
	if names == nil {
		for _, w := range workloads.All(o.Scale) {
			names = append(names, w.Name())
		}
	}
	res := &GeekbenchResult{
		Cores:       o.Cores,
		Workloads:   names,
		Ratios:      make(map[Scheme][]float64),
		Degradation: make(map[Scheme]float64),
	}
	// Measure all schemes back to back per workload: on a shared or
	// frequency-scaled host, drift between distant measurements would
	// otherwise masquerade as a scheme effect.
	times := make(map[Scheme][]time.Duration)
	for _, name := range names {
		for _, scheme := range Schemes() {
			d, err := geekbenchTime(scheme, name, o)
			if err != nil {
				return nil, err
			}
			times[scheme] = append(times[scheme], d)
		}
	}
	for _, scheme := range []Scheme{GuardedCopy, MTESync, MTEAsync} {
		ratios := make([]float64, len(names))
		for i := range names {
			// Performance ratio: baseline time / scheme time (lower time =
			// higher score).
			ratios[i] = float64(times[NoProtection][i]) / float64(times[scheme][i])
		}
		res.Ratios[scheme] = ratios
		res.Degradation[scheme] = (1 - bench.GeoMean(ratios)) * 100
	}
	return res, nil
}

// NumCores returns the host's logical CPU count, the Figure 8 parallelism.
func NumCores() int { return runtime.NumCPU() }
