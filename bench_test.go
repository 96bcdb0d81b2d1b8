package mte4jni

// One testing.B benchmark family per table/figure of the paper's
// evaluation, plus ablation and micro benchmarks. Comparing the ns/op of
// the sub-benchmarks across schemes reproduces the paper's ratios; the
// `mte4jni` command prints the same data as ready-made tables/figures.
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"sync"
	"testing"

	"mte4jni/internal/analysis"
	"mte4jni/internal/interp"
	"mte4jni/internal/jni"
	"mte4jni/internal/workloads"
)

// benchEnv builds a runtime + env for a scheme, failing the benchmark on
// error.
func benchEnv(b *testing.B, cfg Config) (*Runtime, *Env) {
	b.Helper()
	rt, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	env, err := rt.AttachEnv("bench")
	if err != nil {
		b.Fatal(err)
	}
	return rt, env
}

// BenchmarkFig4Effectiveness measures the cost of detecting (or missing)
// the paper's Figure 3 OOB write under each scheme, end to end including
// runtime construction — the cost of one crash diagnosis.
func BenchmarkFig4Effectiveness(b *testing.B) {
	for _, scheme := range Schemes() {
		b.Run(scheme.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RunDetection(scheme, ScenarioOOBWrite); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNewRuntime measures building and closing one runtime with a
// 4 MiB heap per scheme: the pool's session-creation cost, paid again for
// every session a fault quarantines. Its B/op is mostly the simulated memory
// the scheme maps.
func BenchmarkNewRuntime(b *testing.B) {
	for _, scheme := range Schemes() {
		b.Run(scheme.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := newAndCloseRuntime(scheme); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNewRuntimeFirstArray is BenchmarkNewRuntime plus one int[16]
// allocation before the close: the smallest session a request uses. Its
// B/op over BenchmarkNewRuntime's is what a session's first Java object
// costs in allocator bookkeeping.
func BenchmarkNewRuntimeFirstArray(b *testing.B) {
	for _, scheme := range Schemes() {
		b.Run(scheme.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rt, err := New(Config{Scheme: scheme, HeapSize: 4 << 20})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := rt.VM().NewIntArray(16); err != nil {
					b.Fatal(err)
				}
				if err := rt.VM().Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5SingleThread is the §5.3.1 experiment: one native
// acquire/copy/release of int[n]→int[n] per iteration. Compare ns/op
// across schemes at fixed n for the paper's ratios.
func BenchmarkFig5SingleThread(b *testing.B) {
	for _, scheme := range Schemes() {
		for _, pow := range []int{1, 4, 8, 12} {
			n := 1 << pow
			b.Run(fmt.Sprintf("%s/n=2^%d", scheme, pow), func(b *testing.B) {
				_, env := benchEnv(b, Config{Scheme: scheme, HeapSize: 16 << 20})
				src, err := env.NewIntArray(n)
				if err != nil {
					b.Fatal(err)
				}
				dst, err := env.NewIntArray(n)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(n * 4))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fault, err := env.CallNative("copyArrays", Regular, func(e *Env) error {
						return copyNative(e, src, dst, n*4)
					})
					if fault != nil || err != nil {
						b.Fatalf("fault=%v err=%v", fault, err)
					}
				}
			})
		}
	}
}

// BenchmarkFig5Elision is the proof-carrying elision experiment: the same
// screened-safe program (a hot loop of statically proven in-bounds array
// accesses plus one in-payload native call) under MTE-Sync, executed fully
// checked versus with its compiled elision mask bound. The delta is the tag
// check cost the admission screen's proofs discharge.
func BenchmarkFig5Elision(b *testing.B) {
	p := elisionBenchProgram()
	v := analysis.Screen(p)
	if v.Verdict != analysis.VerdictSafe || v.Elision == nil {
		b.Fatalf("elision bench program not screened safe: %+v", v)
	}
	for _, elide := range []bool{false, true} {
		variant := "checked"
		if elide {
			variant = "elided"
		}
		b.Run(variant, func(b *testing.B) {
			_, env := benchEnv(b, Config{Scheme: MTESync, HeapSize: 256 << 20})
			ip := interp.New(env)
			// One interpreter runs all b.N iterations; the cumulative step
			// budget is a safety net, not part of the measured work.
			ip.MaxSteps = 1 << 62
			for name, sum := range p.Natives {
				ip.RegisterNative(name, interp.NativeMethod{Kind: sum.Kind, Body: sum.Materialize()})
			}
			if elide {
				if err := v.Elision.ValidateBinding(p); err != nil {
					b.Fatal(err)
				}
				ip.BindElision(v.Elision.Mask())
			}
			b.SetBytes(elisionBenchBytesPerOp)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ret, fault, err := ip.InvokeCtx(nil, p.Method)
				if ret != 7 || fault != nil || err != nil {
					b.Fatalf("ret=%d fault=%v err=%v", ret, fault, err)
				}
			}
		})
	}
}

// BenchmarkFig6MultiThread is the §5.3.2 experiment: each iteration is one
// full multi-thread run (8 threads × 200 acquire/read/release of an
// int[1024]), in both contention patterns.
func BenchmarkFig6MultiThread(b *testing.B) {
	for _, v := range Fig6Variants() {
		for _, same := range []bool{true, false} {
			test := "different-arrays"
			if same {
				test = "same-array"
			}
			b.Run(v.Display+"/"+test, func(b *testing.B) {
				o := Fig6Options{Threads: 8, Iters: 200, ArrayLen: 1024, Reps: 1, Warmup: 0}
				o.defaults()
				for i := 0; i < b.N; i++ {
					if _, _, err := fig6Run(v, same, o); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig7SingleCore is the §5.4 single-core experiment: one run of
// each GeekBench-style workload per iteration, per scheme.
func BenchmarkFig7SingleCore(b *testing.B) {
	for _, w := range workloads.All(workloads.ScaleSmall) {
		for _, scheme := range Schemes() {
			b.Run(w.Name()+"/"+scheme.String(), func(b *testing.B) {
				rt, env := benchEnv(b, Config{Scheme: scheme, HeapSize: 256 << 20})
				inst, err := workloads.ByName(w.Name(), workloads.ScaleSmall)
				if err != nil {
					b.Fatal(err)
				}
				if err := inst.Setup(env); err != nil {
					b.Fatal(err)
				}
				_ = rt
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fault, err := env.CallNative(inst.Name(), jni.Regular, inst.Run)
					if fault != nil || err != nil {
						b.Fatalf("fault=%v err=%v", fault, err)
					}
				}
			})
		}
	}
}

// BenchmarkFig8MultiCore is the §5.4 multi-core experiment on a
// representative slice: four workloads (two bulk, two of the paper's
// intensive exceptions) run with 4 concurrent copies.
func BenchmarkFig8MultiCore(b *testing.B) {
	const cores = 4
	for _, name := range []string{"File Compression", "Ray Tracer", "Clang", "PDF Renderer"} {
		for _, scheme := range Schemes() {
			b.Run(name+"/"+scheme.String(), func(b *testing.B) {
				rt, err := New(Config{Scheme: scheme, HeapSize: 256 << 20})
				if err != nil {
					b.Fatal(err)
				}
				insts := make([]workloads.Workload, cores)
				envs := make([]*Env, cores)
				for c := 0; c < cores; c++ {
					insts[c], err = workloads.ByName(name, workloads.ScaleSmall)
					if err != nil {
						b.Fatal(err)
					}
					envs[c], err = rt.AttachEnv(fmt.Sprintf("w%d", c))
					if err != nil {
						b.Fatal(err)
					}
					if err := insts[c].Setup(envs[c]); err != nil {
						b.Fatal(err)
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var wg sync.WaitGroup
					wg.Add(cores)
					for c := 0; c < cores; c++ {
						go func(c int) {
							defer wg.Done()
							fault, err := envs[c].CallNative(name, jni.Regular, insts[c].Run)
							if fault != nil || err != nil {
								b.Errorf("fault=%v err=%v", fault, err)
							}
						}(c)
					}
					wg.Wait()
				}
			})
		}
	}
}

// BenchmarkTable1Interfaces covers the full Table 1 surface under MTE4JNI:
// one get+release per iteration, per interface family.
func BenchmarkTable1Interfaces(b *testing.B) {
	_, env := benchEnv(b, Config{Scheme: MTESync, HeapSize: 32 << 20})
	arr, err := env.NewIntArray(256)
	if err != nil {
		b.Fatal(err)
	}
	str, err := env.NewString("the quick brown fox jumps over the lazy dog")
	if err != nil {
		b.Fatal(err)
	}

	b.Run("GetPrimitiveArrayCritical", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fault, err := env.CallNative("t", Regular, func(e *Env) error {
				p, err := e.GetPrimitiveArrayCritical(arr)
				if err != nil {
					return err
				}
				return e.ReleasePrimitiveArrayCritical(arr, p, ReleaseDefault)
			})
			if fault != nil || err != nil {
				b.Fatalf("fault=%v err=%v", fault, err)
			}
		}
	})
	b.Run("GetIntArrayElements", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fault, err := env.CallNative("t", Regular, func(e *Env) error {
				p, err := e.GetIntArrayElements(arr)
				if err != nil {
					return err
				}
				return e.ReleaseIntArrayElements(arr, p, ReleaseDefault)
			})
			if fault != nil || err != nil {
				b.Fatalf("fault=%v err=%v", fault, err)
			}
		}
	})
	b.Run("GetStringCritical", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fault, err := env.CallNative("t", Regular, func(e *Env) error {
				p, err := e.GetStringCritical(str)
				if err != nil {
					return err
				}
				return e.ReleaseStringCritical(str, p)
			})
			if fault != nil || err != nil {
				b.Fatalf("fault=%v err=%v", fault, err)
			}
		}
	})
	b.Run("GetStringChars", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fault, err := env.CallNative("t", Regular, func(e *Env) error {
				p, err := e.GetStringChars(str)
				if err != nil {
					return err
				}
				return e.ReleaseStringChars(str, p)
			})
			if fault != nil || err != nil {
				b.Fatalf("fault=%v err=%v", fault, err)
			}
		}
	})
	b.Run("GetStringUTFChars", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fault, err := env.CallNative("t", Regular, func(e *Env) error {
				p, _, err := e.GetStringUTFChars(str)
				if err != nil {
					return err
				}
				return e.ReleaseStringUTFChars(str, p)
			})
			if fault != nil || err != nil {
				b.Fatalf("fault=%v err=%v", fault, err)
			}
		}
	})
	b.Run("GetIntArrayRegion", func(b *testing.B) {
		buf := make([]byte, 64*4)
		for i := 0; i < b.N; i++ {
			if err := env.GetArrayRegion(KindInt, arr, 16, 64, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationAlignment times the full §4.1 alignment ablation.
func BenchmarkAblationAlignment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunAlignmentAblation([]int{1, 8, 16, 24}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationHashTables compares the two-tier design's k settings on
// the different-arrays contention test.
func BenchmarkAblationHashTables(b *testing.B) {
	o := Fig6Options{Threads: 8, Iters: 100, ArrayLen: 256, Reps: 1, Warmup: 0}
	o.defaults()
	for _, k := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := fig6RunWithHashTables(k, o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTagAllocRelease is the microbenchmark of the paper's core
// operation: Algorithm 1 + Algorithm 2 on a 1 KiB object, per locking
// scheme.
func BenchmarkTagAllocRelease(b *testing.B) {
	for _, locking := range []Locking{TwoTierLocking, GlobalLocking} {
		b.Run(locking.String(), func(b *testing.B) {
			rt, env := benchEnv(b, Config{Scheme: MTESync, Locking: locking, HeapSize: 16 << 20})
			arr, err := env.NewIntArray(256)
			if err != nil {
				b.Fatal(err)
			}
			p := rt.Protector()
			th := env.Thread()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ptr, err := p.Acquire(th, arr, arr.DataBegin(), arr.DataEnd())
				if err != nil {
					b.Fatal(err)
				}
				if err := p.Release(th, arr, ptr, arr.DataBegin(), arr.DataEnd(), ReleaseDefault); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckedAccess compares the simulated load/store unit with
// checking off vs on — the reproduction's stand-in for the hardware tag
// check cost.
func BenchmarkCheckedAccess(b *testing.B) {
	for _, scheme := range []Scheme{NoProtection, MTESync} {
		b.Run(scheme.String(), func(b *testing.B) {
			_, env := benchEnv(b, Config{Scheme: scheme, HeapSize: 16 << 20})
			arr, err := env.NewIntArray(1024)
			if err != nil {
				b.Fatal(err)
			}
			fault, err := env.CallNative("bench", Regular, func(e *Env) error {
				p, err := e.GetPrimitiveArrayCritical(arr)
				if err != nil {
					return err
				}
				b.ResetTimer()
				var sink int32
				for i := 0; i < b.N; i++ {
					sink += e.LoadInt(p.Add(int64(i%1024) * 4))
				}
				b.StopTimer()
				_ = sink
				return e.ReleasePrimitiveArrayCritical(arr, p, ReleaseDefault)
			})
			if fault != nil || err != nil {
				b.Fatalf("fault=%v err=%v", fault, err)
			}
		})
	}
}

// BenchmarkTagFootprint measures the hierarchical tag store's resident
// footprint for a session-shaped working set: 32 pinned (acquired, hence
// tagged) int[1024] arrays on a 64 MiB heap, with acquire/release churn on
// one more. Alongside ns/op for the churn it reports two end-of-run gauges
// the snapshot schema understands (tagB/op, flatTagB/op): resident tag
// bytes under the two-level store versus what the flat per-granule array
// would hold resident for the same mappings.
func BenchmarkTagFootprint(b *testing.B) {
	b.Run("session", func(b *testing.B) {
		rt, env := benchEnv(b, Config{Scheme: MTESync, HeapSize: 64 << 20})
		p := rt.Protector()
		th := env.Thread()
		for i := 0; i < 32; i++ {
			arr, err := env.NewIntArray(1024)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.Acquire(th, arr, arr.DataBegin(), arr.DataEnd()); err != nil {
				b.Fatal(err)
			}
		}
		churn, err := env.NewIntArray(1024)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ptr, err := p.Acquire(th, churn, churn.DataBegin(), churn.DataEnd())
			if err != nil {
				b.Fatal(err)
			}
			if err := p.Release(th, churn, ptr, churn.DataBegin(), churn.DataEnd(), ReleaseDefault); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		ts := rt.VM().Space.TagStats()
		b.ReportMetric(float64(ts.BytesResident), "tagB/op")
		b.ReportMetric(float64(ts.BytesFlatEquiv), "flatTagB/op")
		if ts.BytesFlatEquiv < 10*ts.BytesResident {
			b.Fatalf("tag residency not >=10x under flat: resident=%d flat=%d", ts.BytesResident, ts.BytesFlatEquiv)
		}
	})
}
