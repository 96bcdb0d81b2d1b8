package mte4jni

import (
	"fmt"
	"sync"
	"time"

	"mte4jni/internal/bench"
)

// This file drives the paper's §5.3.2 multi-thread JNI overhead experiment
// (Figure 6): 64 threads concurrently run a native method that repeatedly
// (10000 times) acquires, bulk-reads and releases an int[1024]. In the
// "same array" test all threads hammer one array (contending on MTE4JNI's
// per-object lock); in the "different arrays" test each thread has its own
// (contending, at most, on the hash-table locks). Five protected schemes
// are compared, each normalized to no protection: MTE4JNI two-tier
// sync/async, MTE4JNI with a naive global lock sync/async, and guarded
// copy.

// Fig6Variant identifies one bar group of Figure 6.
type Fig6Variant struct {
	// Display is the legend name.
	Display string
	// Scheme is the base scheme.
	Scheme Scheme
	// Locking applies to MTE schemes.
	Locking Locking
}

// Fig6Variants returns the five protected configurations of Figure 6 plus
// the baseline (first entry).
func Fig6Variants() []Fig6Variant {
	return []Fig6Variant{
		{"No protection", NoProtection, TwoTierLocking},
		{"MTE4JNI+Sync", MTESync, TwoTierLocking},
		{"MTE4JNI+Async", MTEAsync, TwoTierLocking},
		{"MTE4JNI+Sync+global_lock", MTESync, GlobalLocking},
		{"MTE4JNI+Async+global_lock", MTEAsync, GlobalLocking},
		{"Guarded Copy", GuardedCopy, TwoTierLocking},
	}
}

// Fig6Options parameterizes the experiment; zero values select the paper's
// settings.
type Fig6Options struct {
	// Threads is the number of concurrent native threads (default 64).
	Threads int
	// Iters is the per-thread acquire/read/release count (default 10000).
	Iters int
	// ArrayLen is the array length in ints (default 1024).
	ArrayLen int
	// Reps and Warmup control the timing harness (defaults 5 and 1).
	Reps, Warmup int
}

func (o *Fig6Options) defaults() {
	if o.Threads == 0 {
		o.Threads = 64
	}
	if o.Iters == 0 {
		o.Iters = 10000
	}
	if o.ArrayLen == 0 {
		o.ArrayLen = 1024
	}
	if o.Reps == 0 {
		o.Reps = 5
	}
	if o.Warmup == 0 {
		o.Warmup = 1
	}
}

// Contention captures the protector's lock statistics for one run: how
// many table-lock and object-lock acquisitions found the lock held. On
// hosts with little hardware parallelism the wall-clock gap between
// two-tier and global locking collapses (only one thread runs at a time),
// but these counters still expose the §5.3.2 difference.
type Contention struct {
	// Table and Object are contended-acquisition counts.
	Table, Object int64
}

// Fig6Result holds normalized execution times for both tests.
type Fig6Result struct {
	// Variants lists the measured configurations (baseline excluded).
	Variants []Fig6Variant
	// SameArray and DifferentArrays are slowdown ratios vs no protection,
	// index-aligned with Variants.
	SameArray, DifferentArrays []float64
	// SameArrayContention and DifferentArraysContention carry the lock
	// statistics for the MTE variants (zero for guarded copy), index-
	// aligned with Variants.
	SameArrayContention, DifferentArraysContention []Contention
}

// Figure renders the result in the shape of the paper's Figure 6.
func (r *Fig6Result) Figure() *bench.Figure {
	fig := bench.NewFigure("Figure 6: multi-thread concurrent reads, normalized to no protection", "test")
	for i, v := range r.Variants {
		s := fig.AddSeries(v.Display)
		s.Add("Same Array", r.SameArray[i])
		s.Add("Different Array", r.DifferentArrays[i])
	}
	return fig
}

// fig6Run measures the wall-clock time for all threads to finish under one
// configuration. sameArray selects the contention pattern.
func fig6Run(v Fig6Variant, sameArray bool, o Fig6Options) (time.Duration, Contention, error) {
	return fig6RunConfigured(v, sameArray, o, 0)
}

// fig6RunConfigured additionally overrides the protector's hash-table count
// (0 keeps the paper's 16); the hash-table ablation sweeps it.
func fig6RunConfigured(v Fig6Variant, sameArray bool, o Fig6Options, hashTables int) (time.Duration, Contention, error) {
	fb, err := newFig6Bench(v, sameArray, o, hashTables)
	if err != nil {
		return 0, Contention{}, err
	}
	defer fb.close()
	d := bench.Measure(o.Warmup, o.Reps, fb.run)
	if err := fb.err(); err != nil {
		return 0, Contention{}, err
	}
	return d, fb.contention(), nil
}

// fig6Bench is one configuration of the experiment, set up and ready to
// time: a runtime with its native threads attached and arrays allocated.
// Each call of run is one timed pass of every thread.
type fig6Bench struct {
	v   Fig6Variant
	rt  *Runtime
	run func()

	errMu    sync.Mutex
	firstErr error
}

func newFig6Bench(v Fig6Variant, sameArray bool, o Fig6Options, hashTables int) (_ *fig6Bench, err error) {
	rt, err := New(Config{
		Scheme:     v.Scheme,
		Locking:    v.Locking,
		HashTables: hashTables,
		HeapSize:   uint64(64<<20) + uint64(o.Threads*o.ArrayLen*8),
	})
	if err != nil {
		return nil, err
	}
	fb := &fig6Bench{v: v, rt: rt}
	defer func() {
		if err != nil {
			fb.close()
		}
	}()

	// Arrays and environments are created once; the timed section is the
	// native work itself, as on the device.
	arrays := make([]*Object, o.Threads)
	envs := make([]*Env, o.Threads)
	var shared *Object
	for i := 0; i < o.Threads; i++ {
		envs[i], err = rt.AttachEnv(fmt.Sprintf("native-%d", i))
		if err != nil {
			return nil, err
		}
		if sameArray {
			if shared == nil {
				shared, err = envs[i].NewIntArray(o.ArrayLen)
				if err != nil {
					return nil, err
				}
			}
			arrays[i] = shared
		} else {
			arrays[i], err = envs[i].NewIntArray(o.ArrayLen)
			if err != nil {
				return nil, err
			}
		}
	}

	scratchBytes := o.ArrayLen * 4
	fb.run = func() {
		var start, done sync.WaitGroup
		start.Add(1)
		done.Add(o.Threads)
		for i := 0; i < o.Threads; i++ {
			go func(id int) {
				defer done.Done()
				env, arr := envs[id], arrays[id]
				scratch := make([]byte, scratchBytes)
				start.Wait()
				var sink int64
				fault, err := env.CallNative("readArray", Regular, func(e *Env) error {
					for it := 0; it < o.Iters; it++ {
						p, err := e.GetPrimitiveArrayCritical(arr)
						if err != nil {
							return err
						}
						e.CopyToNative(scratch, p)
						// The "read": sum the elements natively, the work
						// the paper's native method exists to do.
						for i := 0; i+4 <= len(scratch); i += 4 {
							sink += int64(int32(uint32(scratch[i]) | uint32(scratch[i+1])<<8 |
								uint32(scratch[i+2])<<16 | uint32(scratch[i+3])<<24))
						}
						if err := e.ReleasePrimitiveArrayCritical(arr, p, JNIAbort); err != nil {
							return err
						}
					}
					return nil
				})
				_ = sink
				if fault != nil {
					fb.setErr(fault)
				}
				if err != nil {
					fb.setErr(err)
				}
			}(i)
		}
		start.Done()
		done.Wait()
	}
	return fb, nil
}

func (fb *fig6Bench) setErr(err error) {
	fb.errMu.Lock()
	if fb.firstErr == nil {
		fb.firstErr = err
	}
	fb.errMu.Unlock()
}

// err returns the first fault or error any thread hit in any pass.
func (fb *fig6Bench) err() error {
	fb.errMu.Lock()
	defer fb.errMu.Unlock()
	if fb.firstErr != nil {
		return fmt.Errorf("fig6 %s: %w", fb.v.Display, fb.firstErr)
	}
	return nil
}

// contention reads the protector's lock statistics accumulated so far.
func (fb *fig6Bench) contention() Contention {
	if p := fb.rt.Protector(); p != nil {
		st := p.Stats()
		return Contention{Table: st.TableLockContended, Object: st.ObjectLockContended}
	}
	return Contention{}
}

func (fb *fig6Bench) close() { _ = fb.rt.VM().Close() }

// RunFig6 runs both tests across all configurations and normalizes. Every
// configuration is set up first and the timed passes are interleaved, one
// pass of each per rep (bench.MeasureInterleaved), so drift in host speed
// over the run hits all variants alike instead of whichever ran last. On
// small hosts the global-lock and two-tier variants differ by less than
// that drift.
func RunFig6(o Fig6Options) (*Fig6Result, error) {
	o.defaults()
	variants := Fig6Variants()
	res := &Fig6Result{Variants: variants[1:]}

	// benches[2*i] is variant i on the same array, benches[2*i+1] on
	// different arrays.
	var benches []*fig6Bench
	defer func() {
		for _, fb := range benches {
			fb.close()
		}
	}()
	runs := make([]func(), 0, 2*len(variants))
	for _, v := range variants {
		for _, same := range []bool{true, false} {
			fb, err := newFig6Bench(v, same, o, 0)
			if err != nil {
				return nil, err
			}
			benches = append(benches, fb)
			runs = append(runs, fb.run)
		}
	}
	ds := bench.MeasureInterleaved(o.Warmup, o.Reps, runs)
	for _, fb := range benches {
		if err := fb.err(); err != nil {
			return nil, err
		}
	}
	baseSame, baseDiff := ds[0], ds[1]
	for i := 1; i < len(variants); i++ {
		same, diff := ds[2*i], ds[2*i+1]
		res.SameArray = append(res.SameArray, float64(same)/float64(baseSame))
		res.DifferentArrays = append(res.DifferentArrays, float64(diff)/float64(baseDiff))
		res.SameArrayContention = append(res.SameArrayContention, benches[2*i].contention())
		res.DifferentArraysContention = append(res.DifferentArraysContention, benches[2*i+1].contention())
	}
	return res, nil
}

// ContentionTable renders the per-variant lock statistics.
func (r *Fig6Result) ContentionTable() *bench.Table {
	t := bench.NewTable("Figure 6 auxiliary: contended lock acquisitions (counts per full run)",
		"variant", "same array (table/object)", "different arrays (table/object)")
	for i, v := range r.Variants {
		if i >= len(r.SameArrayContention) {
			break
		}
		sc, dc := r.SameArrayContention[i], r.DifferentArraysContention[i]
		t.AddRow(v.Display,
			fmt.Sprintf("%d / %d", sc.Table, sc.Object),
			fmt.Sprintf("%d / %d", dc.Table, dc.Object))
	}
	return t
}
