package mte4jni

// The benchmark-snapshot suite behind `mte4jni bench`: a curated set of the
// performance-critical paths (the paper's Figure 5/6 workloads plus the
// access-engine and allocator microbenchmarks), self-timed and emitted as a
// bench.Snapshot so runs can be committed (BENCH_*.json) and diffed across
// changes without the go-test harness. The names match the corresponding
// `go test -bench` benchmarks where one exists, so snapshots parsed from
// either source compare cleanly.

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"mte4jni/internal/analysis"
	"mte4jni/internal/bench"
	"mte4jni/internal/cpu"
	"mte4jni/internal/heap"
	"mte4jni/internal/interp"
	"mte4jni/internal/mem"
	"mte4jni/internal/mte"
)

// BenchSuiteOptions configures RunBenchSuite.
type BenchSuiteOptions struct {
	// Quick shrinks per-case measuring time (~20ms instead of ~250ms) for
	// smoke runs; numbers are noisier but the suite finishes in seconds.
	Quick bool
	// Note is stored in the snapshot (e.g. "after: TLB+SWAR engine").
	Note string
}

// suiteCase is one benchmark: setup returns the per-iteration body (running
// n iterations) and the bytes processed per iteration (0 when throughput is
// meaningless for the case).
type suiteCase struct {
	name  string
	setup func() (fn func(n int) error, bytesPerOp int64, err error)
	// post, when set, runs after the case is measured and may annotate the
	// result with end-of-run gauges (e.g. resident tag bytes). It must not
	// mutate the timing fields.
	post func(*bench.Result)
}

// RunBenchSuite measures every suite case and returns the snapshot.
func RunBenchSuite(o BenchSuiteOptions) (*bench.Snapshot, error) {
	target := 250 * time.Millisecond
	if o.Quick {
		target = 20 * time.Millisecond
	}
	snap := bench.NewSnapshot(o.Note)
	for _, c := range suiteCases() {
		// go test -bench replaces spaces in sub-benchmark names with
		// underscores; do the same so snapshots from either source diff
		// cleanly.
		c.name = strings.ReplaceAll(c.name, " ", "_")
		res, err := runSuiteCase(c, target)
		if err != nil {
			return nil, fmt.Errorf("bench %s: %w", c.name, err)
		}
		if c.post != nil {
			c.post(&res)
		}
		snap.Add(res)
	}
	return snap, nil
}

// runSuiteCase times one case: a warmup iteration, then batches grown until
// the timed batch is long enough to trust, with Go allocator traffic read
// from runtime.MemStats around the final batch.
func runSuiteCase(c suiteCase, target time.Duration) (bench.Result, error) {
	fn, bytesPerOp, err := c.setup()
	if err != nil {
		return bench.Result{}, err
	}
	if err := fn(1); err != nil { // warmup
		return bench.Result{}, err
	}
	n := 1
	for {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		if err := fn(n); err != nil {
			return bench.Result{}, err
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if elapsed >= target || n >= 1<<30 {
			perOp := float64(elapsed.Nanoseconds()) / float64(n)
			r := bench.Result{
				Name:        c.name,
				Iters:       n,
				NsPerOp:     perOp,
				AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(n),
				BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
			}
			if bytesPerOp > 0 && elapsed > 0 {
				r.MBPerS = float64(bytesPerOp) * float64(n) / elapsed.Seconds() / 1e6
			}
			return r, nil
		}
		// Grow toward the target in one or two more steps.
		grow := int(float64(target)/float64(elapsed)*float64(n)*1.2) + 1
		if grow > 100*n {
			grow = 100 * n
		}
		n = grow
	}
}

// newAndCloseRuntime builds a runtime the way the pool builds a session, at
// the serving benchmark's 4 MiB heap, and closes it again.
func newAndCloseRuntime(scheme Scheme) error {
	rt, err := New(Config{Scheme: scheme, HeapSize: 4 << 20})
	if err != nil {
		return err
	}
	return rt.VM().Close()
}

// suiteCases builds the full suite.
func suiteCases() []suiteCase {
	var cases []suiteCase

	// Figure 5: one native acquire/copy/release of int[4096] per iteration,
	// per scheme — the single-thread JNI overhead experiment.
	for _, scheme := range Schemes() {
		scheme := scheme
		const n = 1 << 12
		cases = append(cases, suiteCase{
			name: fmt.Sprintf("Fig5SingleThread/%s/n=2^12", scheme),
			setup: func() (func(int) error, int64, error) {
				rt, err := New(Config{Scheme: scheme, HeapSize: 16 << 20})
				if err != nil {
					return nil, 0, err
				}
				env, err := rt.AttachEnv("bench")
				if err != nil {
					return nil, 0, err
				}
				src, err := env.NewIntArray(n)
				if err != nil {
					return nil, 0, err
				}
				dst, err := env.NewIntArray(n)
				if err != nil {
					return nil, 0, err
				}
				return func(iters int) error {
					for i := 0; i < iters; i++ {
						fault, err := env.CallNative("copyArrays", Regular, func(e *Env) error {
							return copyNative(e, src, dst, n*4)
						})
						if fault != nil {
							return fmt.Errorf("fault: %v", fault)
						}
						if err != nil {
							return err
						}
					}
					return nil
				}, n * 4, nil
			},
		})
	}

	// Session creation: build and close one runtime with a 4 MiB heap per
	// iteration, per scheme — what the pool pays for every fresh session,
	// including each replacement of a quarantined one.
	for _, scheme := range Schemes() {
		cases = append(cases, suiteCase{
			name: "NewRuntime/" + scheme.String(),
			setup: func() (func(int) error, int64, error) {
				return func(iters int) error {
					for i := 0; i < iters; i++ {
						if err := newAndCloseRuntime(scheme); err != nil {
							return err
						}
					}
					return nil
				}, 0, nil
			},
		})
	}

	// Figure 6: one full 8-thread × 200-iteration contention run per
	// iteration, per variant and sharing pattern.
	for _, v := range Fig6Variants() {
		for _, same := range []bool{true, false} {
			v, same := v, same
			test := "different-arrays"
			if same {
				test = "same-array"
			}
			cases = append(cases, suiteCase{
				name: fmt.Sprintf("Fig6MultiThread/%s/%s", v.Display, test),
				setup: func() (func(int) error, int64, error) {
					o := Fig6Options{Threads: 8, Iters: 200, ArrayLen: 1024, Reps: 1, Warmup: 0}
					o.defaults()
					return func(iters int) error {
						for i := 0; i < iters; i++ {
							if _, _, err := fig6Run(v, same, o); err != nil {
								return err
							}
						}
						return nil
					}, 0, nil
				},
			})
		}
	}

	// Access-engine microbenchmarks: the simulated load/store unit on the
	// fault-free checked path.
	cases = append(cases,
		suiteCase{
			name: "mem/Load64Checked",
			setup: func() (func(int) error, int64, error) {
				s, m, ctx, err := suiteSpace()
				if err != nil {
					return nil, 0, err
				}
				p := mte.MakePtr(m.Base(), 0x5)
				return func(iters int) error {
					for i := 0; i < iters; i++ {
						if _, f := s.Load64(ctx, p); f != nil {
							return fmt.Errorf("fault: %v", f)
						}
					}
					return nil
				}, 8, nil
			},
		},
		suiteCase{
			name: "mem/CopyOutChecked/n=16384",
			setup: func() (func(int) error, int64, error) {
				s, m, ctx, err := suiteSpace()
				if err != nil {
					return nil, 0, err
				}
				p := mte.MakePtr(m.Base(), 0x5)
				buf := make([]byte, 16384)
				return func(iters int) error {
					for i := 0; i < iters; i++ {
						if f := s.CopyOut(ctx, p, buf); f != nil {
							return fmt.Errorf("fault: %v", f)
						}
					}
					return nil
				}, 16384, nil
			},
		},
		suiteCase{
			name: "mem/MoveChecked/n=16384",
			setup: func() (func(int) error, int64, error) {
				s, m, ctx, err := suiteSpace()
				if err != nil {
					return nil, 0, err
				}
				src := mte.MakePtr(m.Base(), 0x5)
				dst := mte.MakePtr(m.Base()+1<<19, 0x5)
				return func(iters int) error {
					for i := 0; i < iters; i++ {
						if f := s.Move(ctx, dst, src, 16384); f != nil {
							return fmt.Errorf("fault: %v", f)
						}
					}
					return nil
				}, 16384, nil
			},
		},
		suiteCase{
			name: "mem/SetTagRange/n=16384",
			setup: func() (func(int) error, int64, error) {
				_, m, _, err := suiteSpace()
				if err != nil {
					return nil, 0, err
				}
				return func(iters int) error {
					for i := 0; i < iters; i++ {
						if _, err := m.SetTagRange(m.Base(), m.Base()+16384, mte.Tag(i&0xF)); err != nil {
							return err
						}
					}
					return nil
				}, 16384 / mte.GranuleSize, nil
			},
		},
	)

	// Allocator microbenchmarks: the TLAB fast path, serial and under 8-way
	// concurrency.
	cases = append(cases,
		suiteCase{
			name: "heap/AllocFreeSerial/size=256",
			setup: func() (func(int) error, int64, error) {
				h, err := heap.New(mem.NewSpace(), heap.Config{Size: 32 << 20, Alignment: 16})
				if err != nil {
					return nil, 0, err
				}
				return func(iters int) error {
					for i := 0; i < iters; i++ {
						a, err := h.Alloc(256)
						if err != nil {
							return err
						}
						if err := h.Free(a); err != nil {
							return err
						}
					}
					return nil
				}, 0, nil
			},
		},
		suiteCase{
			name: "heap/AllocFreeParallel8/size=256",
			setup: func() (func(int) error, int64, error) {
				h, err := heap.New(mem.NewSpace(), heap.Config{Size: 32 << 20, Alignment: 16})
				if err != nil {
					return nil, 0, err
				}
				return func(iters int) error {
					const workers = 8
					var wg sync.WaitGroup
					errs := make([]error, workers)
					for w := 0; w < workers; w++ {
						wg.Add(1)
						go func(w int) {
							defer wg.Done()
							for i := 0; i < iters/workers+1; i++ {
								a, err := h.Alloc(256)
								if err != nil {
									errs[w] = err
									return
								}
								if err := h.Free(a); err != nil {
									errs[w] = err
									return
								}
							}
						}(w)
					}
					wg.Wait()
					for _, err := range errs {
						if err != nil {
							return err
						}
					}
					return nil
				}, 0, nil
			},
		},
	)

	// The paper's core operation: Algorithm 1 + Algorithm 2 on a 1 KiB
	// object, per locking scheme.
	for _, locking := range []Locking{TwoTierLocking, GlobalLocking} {
		locking := locking
		cases = append(cases, suiteCase{
			name: fmt.Sprintf("micro/TagAllocRelease/%s", locking),
			setup: func() (func(int) error, int64, error) {
				rt, err := New(Config{Scheme: MTESync, Locking: locking, HeapSize: 16 << 20})
				if err != nil {
					return nil, 0, err
				}
				env, err := rt.AttachEnv("bench")
				if err != nil {
					return nil, 0, err
				}
				arr, err := env.NewIntArray(256)
				if err != nil {
					return nil, 0, err
				}
				p := rt.Protector()
				th := env.Thread()
				return func(iters int) error {
					for i := 0; i < iters; i++ {
						ptr, err := p.Acquire(th, arr, arr.DataBegin(), arr.DataEnd())
						if err != nil {
							return err
						}
						if err := p.Release(th, arr, ptr, arr.DataBegin(), arr.DataEnd(), ReleaseDefault); err != nil {
							return err
						}
					}
					return nil
				}, 0, nil
			},
		})
	}

	// Proof-carrying elision on the screened-safe hot loop: the same program
	// executed fully checked versus with its compiled elision mask bound —
	// the measurable win of discharging the tag-check guards statically.
	for _, elide := range []bool{false, true} {
		elide := elide
		variant := "checked"
		if elide {
			variant = "elided"
		}
		cases = append(cases, suiteCase{
			name: "Fig5Elision/" + variant,
			setup: func() (func(int) error, int64, error) {
				p := elisionBenchProgram()
				v := analysis.Screen(p)
				if v.Verdict != analysis.VerdictSafe || v.Elision == nil {
					return nil, 0, fmt.Errorf("elision bench program not screened safe: %+v", v)
				}
				rt, err := New(Config{Scheme: MTESync, HeapSize: 256 << 20})
				if err != nil {
					return nil, 0, err
				}
				env, err := rt.AttachEnv("bench")
				if err != nil {
					return nil, 0, err
				}
				ip := interp.New(env)
				// One interpreter runs every iteration; lift the cumulative
				// step-budget safety net out of the measurement's way.
				ip.MaxSteps = 1 << 62
				for name, sum := range p.Natives {
					ip.RegisterNative(name, interp.NativeMethod{Kind: sum.Kind, Body: sum.Materialize()})
				}
				if elide {
					if err := v.Elision.ValidateBinding(p); err != nil {
						return nil, 0, err
					}
					ip.BindElision(v.Elision.Mask())
				}
				return func(iters int) error {
					for i := 0; i < iters; i++ {
						ret, fault, err := ip.InvokeCtx(nil, p.Method)
						if fault != nil {
							return fmt.Errorf("fault: %v", fault)
						}
						if err != nil {
							return err
						}
						if ret != 7 {
							return fmt.Errorf("ret = %d, want 7", ret)
						}
					}
					return nil
				}, elisionBenchBytesPerOp, nil
			},
		})
	}

	// Guard-free access-engine microbenchmarks: the same load/store unit with
	// the SWAR tag compare elided, the per-access cost a discharged proof
	// buys back.
	cases = append(cases,
		suiteCase{
			name: "mem/Load64Unguarded",
			setup: func() (func(int) error, int64, error) {
				s, m, ctx, err := suiteSpace()
				if err != nil {
					return nil, 0, err
				}
				p := mte.MakePtr(m.Base(), 0x5)
				return func(iters int) error {
					for i := 0; i < iters; i++ {
						if _, f := s.Load64Unguarded(ctx, p); f != nil {
							return fmt.Errorf("fault: %v", f)
						}
					}
					return nil
				}, 8, nil
			},
		},
		suiteCase{
			name: "mem/CopyOutUnguarded/n=16384",
			setup: func() (func(int) error, int64, error) {
				s, m, ctx, err := suiteSpace()
				if err != nil {
					return nil, 0, err
				}
				p := mte.MakePtr(m.Base(), 0x5)
				buf := make([]byte, 16384)
				return func(iters int) error {
					for i := 0; i < iters; i++ {
						if f := s.CopyOutUnguarded(ctx, p, buf); f != nil {
							return fmt.Errorf("fault: %v", f)
						}
					}
					return nil
				}, 16384, nil
			},
		},
	)

	// The serving layer's admission screen on an inline program: the cold
	// path (parse + abstract interpretation, what a verdict-cache miss
	// costs) versus a verdict-cache hit (one hash + map lookup, what every
	// resubmission costs).
	raw := screenBenchProgram()
	cases = append(cases,
		suiteCase{
			name: "micro/ScreenInline/cold",
			setup: func() (func(int) error, int64, error) {
				return func(iters int) error {
					for i := 0; i < iters; i++ {
						p, err := analysis.ParseProgram(raw)
						if err != nil {
							return err
						}
						if v := analysis.Screen(p); !v.Rejected() {
							return fmt.Errorf("screen bench program not rejected: %+v", v)
						}
					}
					return nil
				}, 0, nil
			},
		},
		suiteCase{
			name: "micro/ScreenInline/cached",
			setup: func() (func(int) error, int64, error) {
				c := analysis.NewScreenCache(0)
				if _, _, err := c.ScreenBytes(raw); err != nil {
					return nil, 0, err
				}
				return func(iters int) error {
					for i := 0; i < iters; i++ {
						v, hit, err := c.ScreenBytes(raw)
						if err != nil {
							return err
						}
						if !hit || !v.Rejected() {
							return fmt.Errorf("expected cached rejection, got hit=%v %+v", hit, v)
						}
					}
					return nil
				}, 0, nil
			},
		},
	)

	// Hierarchical tag-storage footprint: a session-shaped working set — a
	// 64 MiB heap with 32 pinned (acquired, hence tagged) int[1024] arrays
	// and steady acquire/release churn on one more. The post hook records
	// the two-level store's resident tag bytes at end of run against what
	// the flat per-granule array would hold resident for the same mappings;
	// PR 7's headline claim is the >=10x gap between the two.
	var footSpace *mem.Space
	cases = append(cases, suiteCase{
		name: "mem/TagFootprint/session",
		setup: func() (func(int) error, int64, error) {
			rt, err := New(Config{Scheme: MTESync, HeapSize: 64 << 20})
			if err != nil {
				return nil, 0, err
			}
			footSpace = rt.VM().Space
			env, err := rt.AttachEnv("bench")
			if err != nil {
				return nil, 0, err
			}
			p := rt.Protector()
			th := env.Thread()
			for i := 0; i < 32; i++ {
				arr, err := env.NewIntArray(1024)
				if err != nil {
					return nil, 0, err
				}
				if _, err := p.Acquire(th, arr, arr.DataBegin(), arr.DataEnd()); err != nil {
					return nil, 0, err
				}
			}
			churn, err := env.NewIntArray(1024)
			if err != nil {
				return nil, 0, err
			}
			return func(iters int) error {
				for i := 0; i < iters; i++ {
					ptr, err := p.Acquire(th, churn, churn.DataBegin(), churn.DataEnd())
					if err != nil {
						return err
					}
					if err := p.Release(th, churn, ptr, churn.DataBegin(), churn.DataEnd(), ReleaseDefault); err != nil {
						return err
					}
				}
				return nil
			}, 0, nil
		},
		post: func(r *bench.Result) {
			ts := footSpace.TagStats()
			r.TagBytesPerOp = float64(ts.BytesResident)
			r.TagBytesFlatPerOp = float64(ts.BytesFlatEquiv)
		},
	})

	return cases
}

// screenBenchProgram marshals the admission-screen benchmark input: a
// use-after-release program the screen provably rejects, shaped like the
// serving layer's canned probes.
func screenBenchProgram() []byte {
	p := &analysis.Program{
		Method: &interp.Method{
			Name: "screen_bench",
			Code: []interp.Inst{
				{Op: interp.OpConst, A: 16},
				{Op: interp.OpNewArray, A: 0},
				{Op: interp.OpCallNative, A: 0, B: 0},
				{Op: interp.OpConst, A: 42},
				{Op: interp.OpReturn},
			},
			MaxLocals: 1, MaxRefs: 1,
			NativeNames: []string{"stale"},
		},
		Natives: map[string]analysis.NativeSummary{
			"stale": {MinOff: 0, MaxOff: 63, UseAfterRelease: true},
		},
	}
	raw, err := analysis.MarshalProgram(p)
	if err != nil {
		panic(err) // static input: cannot fail
	}
	return raw
}

// Elision benchmark program shape: a 64-iteration loop over 16 proven
// in-bounds aget and 16 aput sites on an int[16], then one in-payload
// native call — every heap access in it elides under the compiled mask.
const (
	elisionBenchArrLen = 16
	elisionBenchSites  = 16
	elisionBenchLoops  = 64
	// Bytes of proven array traffic per run: 4 bytes per access, one aget
	// and one aput per site per loop iteration.
	elisionBenchBytesPerOp = int64(elisionBenchLoops * elisionBenchSites * 2 * 4)
)

// elisionBenchProgram builds the proof-carrying elision benchmark input: a
// screened-safe program whose hot loop is nothing but statically proven
// in-bounds array traffic. Under the elision mask every access dispatches
// as a guard-free superinstruction; fully checked, every access pays the
// SWAR tag compare — the pair isolates what the proofs buy.
func elisionBenchProgram() *analysis.Program {
	code := []interp.Inst{
		{Op: interp.OpConst, A: elisionBenchArrLen},
		{Op: interp.OpNewArray, A: 0},
		{Op: interp.OpConst, A: elisionBenchLoops},
		{Op: interp.OpStore, A: 0},
	}
	loopStart := int64(len(code))
	for i := 0; i < elisionBenchSites; i++ {
		idx := int64(i % elisionBenchArrLen)
		code = append(code,
			interp.Inst{Op: interp.OpConst, A: idx},
			interp.Inst{Op: interp.OpArrayGet, A: 0},
			interp.Inst{Op: interp.OpStore, A: 1},
			interp.Inst{Op: interp.OpConst, A: idx},
			interp.Inst{Op: interp.OpConst, A: 7},
			interp.Inst{Op: interp.OpArrayPut, A: 0},
		)
	}
	exit := int64(len(code)) + 7
	code = append(code,
		interp.Inst{Op: interp.OpLoad, A: 0},
		interp.Inst{Op: interp.OpConst, A: 1},
		interp.Inst{Op: interp.OpSub},
		interp.Inst{Op: interp.OpStore, A: 0},
		interp.Inst{Op: interp.OpLoad, A: 0},
		interp.Inst{Op: interp.OpJmpIfZero, A: exit},
		interp.Inst{Op: interp.OpJmp, A: loopStart},
		// exit:
		interp.Inst{Op: interp.OpCallNative, A: 0, B: 0},
		interp.Inst{Op: interp.OpConst, A: 7},
		interp.Inst{Op: interp.OpReturn},
	)
	return &analysis.Program{
		Method: &interp.Method{
			Name:        "fig5_elide",
			Code:        code,
			MaxLocals:   2,
			MaxRefs:     1,
			NativeNames: []string{"bulk"},
		},
		Natives: map[string]analysis.NativeSummary{
			// In-payload: int[16] is 64 bytes, granule-rounded end 64.
			"bulk": {MinOff: 0, MaxOff: 63},
		},
	}
}

// suiteSpace builds the standard microbenchmark space: a 1 MiB tagged
// mapping (tag 0x5) and a sync-checking context.
func suiteSpace() (*mem.Space, *mem.Mapping, *cpu.Context, error) {
	s := mem.NewSpace()
	m, err := s.Map("bench", 1<<20, mem.ProtRead|mem.ProtWrite|mem.ProtMTE)
	if err != nil {
		return nil, nil, nil, err
	}
	if _, err := m.SetTagRange(m.Base(), m.End(), 0x5); err != nil {
		return nil, nil, nil, err
	}
	ctx := cpu.New("bench", mte.TCFSync)
	ctx.SetTCO(false)
	return s, m, ctx, nil
}
