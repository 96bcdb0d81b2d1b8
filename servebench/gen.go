package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"mte4jni"
	"mte4jni/internal/analysis"
	"mte4jni/internal/fuzz"
	"mte4jni/internal/interp"
	"mte4jni/internal/pool"
	"mte4jni/internal/server"
	"mte4jni/internal/workloads"
)

// class is what kind of traffic a request is; it picks the per-layer
// aggregates a request feeds.
type class uint8

const (
	classGen    class = iota // fuzz.GenProgram inline program
	classLoop                // Fig5Elision-shaped inline loop program
	classSafe                // canned "safe" probe
	classOOB                 // canned "oob" probe
	classAttack              // canned "attack" probe
	classBad                 // known provably-faulting inline program
	classKernel              // built-in GeekBench-style workload
)

// program reports whether the request carries an inline program, i.e. goes
// through the admission screen.
func (c class) program() bool { return c == classGen || c == classLoop || c == classBad }

// template is one distinct request: its /run body and the outcome the daemon
// must answer with. A workload's traffic is a seeded sequence of template
// indices.
type template struct {
	Class  class
	Scheme mte4jni.Scheme
	Body   []byte
	Want   outcome
}

// workload is a generated traffic mix. Everything in it is a pure function
// of the seed.
type workload struct {
	name      string
	templates []template
	// schemes lists the protection schemes the traffic uses.
	schemes []mte4jni.Scheme
	// warm lists the template indices sent during warm-up, which creates
	// sessions and fills the screen cache before anything is timed.
	warm []int32
	// drawer returns a fresh request drawer over rng; the i-th draw of a
	// drawer is the stream's i-th request.
	drawer func(rng *rand.Rand) func() int32
}

// Stream identifiers: each phase of a run draws from its own stream, so the
// open loop offers byte-identical load whatever the closed loop managed.
const (
	streamClosed = 1
	streamOpen   = 2
	streamArrive = 3
)

func streamRNG(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream*7919))
}

// stream returns the first n requests of one of the workload's streams.
func (w *workload) stream(seed int64, id int64, n int) []int32 {
	draw := w.drawer(streamRNG(seed, id))
	out := make([]int32, n)
	for i := range out {
		out[i] = draw()
	}
	return out
}

// arrivals returns n Poisson arrival offsets (ns from the phase start) at
// the given rate.
func arrivals(seed int64, rate float64, n int) []int64 {
	rng := streamRNG(seed, streamArrive)
	out := make([]int64, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = int64(t * 1e9)
	}
	return out
}

var allSchemes = []mte4jni.Scheme{mte4jni.NoProtection, mte4jni.GuardedCopy, mte4jni.MTESync, mte4jni.MTEAsync}

// schemeWire is the short scheme spelling server.ParseScheme accepts.
func schemeWire(sc mte4jni.Scheme) string {
	switch sc {
	case mte4jni.NoProtection:
		return "none"
	case mte4jni.GuardedCopy:
		return "guarded"
	case mte4jni.MTEAsync:
		return "async"
	}
	return "sync"
}

func body(req server.RunRequest) []byte {
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // RunRequest has only plain fields
	}
	return b
}

var workloadNames = []string{"inline", "kernels", "hostile"}

func buildWorkload(name string, seed int64, s *spec) (*workload, error) {
	switch name {
	case "inline":
		return inlineWorkload(seed, s.Daemon.ScreenCacheSize)
	case "kernels":
		return kernelsWorkload(), nil
	case "hostile":
		return hostileWorkload(), nil
	}
	return nil, fmt.Errorf("unknown workload %q (inline, kernels, hostile)", name)
}

// Inline traffic shape.
const (
	// populationFactor sizes the program population against the screen
	// cache, so the Zipf tail keeps missing after warm-up.
	populationFactor = 4
	// Every loopEvery-th popularity rank is a loop program, so each seed's
	// head carries the same share of them.
	loopEvery = 5
	// Zipf(s, v) over the population: P(rank k) ∝ (v+k)^-s. The offset v
	// keeps the head from being a handful of programs, so no single seed's
	// top programs (rejected or admitted, cheap or loop-heavy) set the
	// cost of the whole mix; the screen-cache-sized head still draws about
	// 80% of requests.
	zipfS = 1.1
	zipfV = 20
)

var inlineSchemes = []mte4jni.Scheme{mte4jni.MTESync, mte4jni.MTEAsync}

func inlineWorkload(seed int64, cacheSize int) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	n := populationFactor * cacheSize
	oracle := newProgramOracle()
	defer oracle.close()
	w := &workload{name: "inline", schemes: inlineSchemes}
	for i := 0; i < n; i++ {
		var p *analysis.Program
		cl := classGen
		if i%loopEvery == 0 {
			p, cl = loopProgram(rng), classLoop
		} else {
			p, _ = fuzz.GenProgram(rng)
		}
		raw, err := analysis.MarshalProgram(p)
		if err != nil {
			return nil, err
		}
		for _, sc := range inlineSchemes {
			want, err := oracle.expect(raw, sc)
			if err != nil {
				return nil, err
			}
			w.templates = append(w.templates, template{
				Class: cl, Scheme: sc, Want: want,
				Body: body(server.RunRequest{Scheme: schemeWire(sc), Program: raw}),
			})
		}
	}
	// Warm-up screens the Zipf head once, which is what fills the cache.
	for i := 0; i < cacheSize; i++ {
		w.warm = append(w.warm, int32(2*i+i%2))
	}
	w.drawer = func(rng *rand.Rand) func() int32 {
		z := rand.NewZipf(rng, zipfS, zipfV, uint64(n-1))
		return func() int32 { return int32(2*z.Uint64()) + int32(rng.Intn(2)) }
	}
	return w, nil
}

// loopProgram builds a screened-safe program in the Fig5Elision shape: a
// counted loop of proven in-bounds array reads and writes, then one
// in-payload native call. Every array access is an elision site.
func loopProgram(rng *rand.Rand) *analysis.Program {
	arrLen := int64(4 * (2 + rng.Intn(7))) // 8..32 ints, granule-aligned
	loops := int64(16 + rng.Intn(17))
	sites := 6 + rng.Intn(7)
	ret := int64(rng.Intn(1000))
	code := []interp.Inst{
		{Op: interp.OpConst, A: arrLen},
		{Op: interp.OpNewArray, A: 0},
		{Op: interp.OpConst, A: loops},
		{Op: interp.OpStore, A: 0},
	}
	loopStart := int64(len(code))
	for i := 0; i < sites; i++ {
		idx := rng.Int63n(arrLen)
		code = append(code,
			interp.Inst{Op: interp.OpConst, A: idx},
			interp.Inst{Op: interp.OpArrayGet, A: 0},
			interp.Inst{Op: interp.OpStore, A: 1},
			interp.Inst{Op: interp.OpConst, A: idx},
			interp.Inst{Op: interp.OpConst, A: int64(rng.Intn(100))},
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
		interp.Inst{Op: interp.OpCallNative, A: 0, B: 0},
		interp.Inst{Op: interp.OpConst, A: ret},
		interp.Inst{Op: interp.OpReturn},
	)
	return &analysis.Program{
		Method: &interp.Method{
			Name: "bench_loop", Code: code,
			MaxLocals: 2, MaxRefs: 1, NativeNames: []string{"bulk"},
		},
		Natives: map[string]analysis.NativeSummary{
			"bulk": {MinOff: 0, MaxOff: arrLen*4 - 1, Write: rng.Intn(2) == 0},
		},
	}
}

// Kernel traffic shape: iterations per request are drawn from
// [minIters, minIters+itersSpan).
const (
	minIters  = 2
	itersSpan = 3
)

func kernelsWorkload() *workload {
	all := workloads.All(workloads.ScaleSmall)
	w := &workload{name: "kernels", schemes: allSchemes}
	for _, k := range all {
		for _, sc := range allSchemes {
			for it := minIters; it < minIters+itersSpan; it++ {
				w.templates = append(w.templates, template{
					Class: classKernel, Scheme: sc,
					Want: outcome{Status: 200, OK: true, Ret: int64(it)},
					Body: body(server.RunRequest{Scheme: schemeWire(sc), Workload: k.Name(), Scale: "small", Iterations: it}),
				})
			}
		}
	}
	idx := func(k, s, it int) int32 { return int32((k*len(allSchemes)+s)*itersSpan + it) }
	for k := range all {
		for s := range allSchemes {
			w.warm = append(w.warm, idx(k, s, 0))
		}
	}
	w.drawer = func(rng *rand.Rand) func() int32 {
		i := 0
		return func() int32 {
			s := i % len(allSchemes)
			i++
			return idx(rng.Intn(len(all)), s, rng.Intn(itersSpan))
		}
	}
	return w
}

// Hostile traffic shape: shares of each probe class; the rest is canned
// safe probes.
const (
	oobShare    = 0.20
	attackShare = 0.10
	badShare    = 0.10
	tenants     = 8
)

var mteSchemes = []mte4jni.Scheme{mte4jni.MTESync, mte4jni.MTEAsync}

func hostileWorkload() *workload {
	w := &workload{name: "hostile", schemes: allSchemes}
	add := func(t template) int32 {
		w.templates = append(w.templates, t)
		return int32(len(w.templates) - 1)
	}
	var safe, oob, attack, bad []int32
	for _, sc := range allSchemes {
		safe = append(safe, add(template{
			Class: classSafe, Scheme: sc, Want: outcome{Status: 200, OK: true, Ret: 42},
			Body: body(server.RunRequest{Scheme: schemeWire(sc), Canned: "safe"}),
		}))
		// The attack probe's forged-tag store is detected exactly under the
		// MTE schemes and lands silently (ret 1) under the others.
		want := outcome{Status: 200, OK: true, Ret: 1}
		if sc.MTE() {
			want = outcome{Status: 200, Fault: true}
		}
		for t := 0; t < tenants; t++ {
			attack = append(attack, add(template{
				Class: classAttack, Scheme: sc, Want: want,
				Body: body(server.RunRequest{Scheme: schemeWire(sc), Canned: "attack", Tenant: fmt.Sprintf("tenant-%d", t)}),
			}))
		}
	}
	for _, sc := range mteSchemes {
		oob = append(oob, add(template{
			Class: classOOB, Scheme: sc, Want: outcome{Status: 200, Fault: true},
			Body: body(server.RunRequest{Scheme: schemeWire(sc), Canned: "oob"}),
		}))
		for _, name := range pool.BadProgramNames {
			raw, err := analysis.MarshalProgram(pool.BadProgram(name))
			if err != nil {
				panic(err) // the canned corpus always marshals
			}
			bad = append(bad, add(template{
				Class: classBad, Scheme: sc, Want: outcome{Status: 422},
				Body: body(server.RunRequest{Scheme: schemeWire(sc), Program: raw}),
			}))
		}
	}
	// Warm-up sends every probe class once, under every scheme it uses.
	w.warm = append(append(append(append(w.warm, safe...), oob...), bad...), attack[0], attack[len(attack)-1])
	w.drawer = func(rng *rand.Rand) func() int32 {
		return func() int32 {
			pick := func(s []int32) int32 { return s[rng.Intn(len(s))] }
			switch u := rng.Float64(); {
			case u < oobShare:
				return pick(oob)
			case u < oobShare+attackShare:
				return pick(attack)
			case u < oobShare+attackShare+badShare:
				return pick(bad)
			default:
				return pick(safe)
			}
		}
	}
	return w
}
