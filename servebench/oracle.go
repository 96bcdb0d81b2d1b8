package main

import (
	"fmt"

	"mte4jni"
	"mte4jni/internal/analysis"
	"mte4jni/internal/interp"
	"mte4jni/internal/jni"
)

// outcome is what the daemon must answer for one request: the HTTP status,
// and for a 200 whether the run completed, faulted, and what it returned.
type outcome struct {
	Status int
	OK     bool
	Fault  bool
	Ret    int64 // compared only when OK
	// Temporal marks a 422 issued by the temporal screen rather than the
	// fault screen; the two move different /metrics counters.
	Temporal bool
}

func (o outcome) String() string {
	if o.Status != 200 {
		if o.Temporal {
			return fmt.Sprintf("%d(temporal)", o.Status)
		}
		return fmt.Sprint(o.Status)
	}
	switch {
	case o.Fault:
		return "200 fault"
	case !o.OK:
		return "200 error"
	}
	return fmt.Sprintf("200 ok ret=%d", o.Ret)
}

// matches compares an observed outcome against the expected one.
func (o outcome) matches(got outcome) bool {
	if o.Status != got.Status || o.Temporal != got.Temporal {
		return false
	}
	if o.Status != 200 {
		return true
	}
	return o.OK == got.OK && o.Fault == got.Fault && (!o.OK || o.Ret == got.Ret)
}

// placement mirrors the server's scheme → check-placement mapping, which
// decides under which schemes a temporal finding is exposed.
func placement(sc mte4jni.Scheme) jni.CheckPlacement {
	switch sc {
	case mte4jni.MTESync:
		return jni.PlacePerAccess
	case mte4jni.MTEAsync:
		return jni.PlaceTrampolineExit
	case mte4jni.GuardedCopy:
		return jni.PlaceAtRelease
	}
	return jni.PlaceNever
}

// programOracle computes the expected outcome of an inline program without
// the server or the pool: the static screen decides 422 exactly as admission
// does (fault verdict, then temporal exposure under the reject policy), and
// an admitted program is executed fully checked on a plain runtime, the way
// fuzz.ExecuteScheme does. Building a runtime costs milliseconds, so one
// runtime per scheme is reused, collected between programs, and replaced
// whenever a run faults or leaves objects behind; the benchmark's tests
// check this against fuzz.ExecuteScheme.
type programOracle struct {
	rts map[mte4jni.Scheme]*mte4jni.Runtime
}

func newProgramOracle() *programOracle {
	return &programOracle{rts: make(map[mte4jni.Scheme]*mte4jni.Runtime)}
}

func (o *programOracle) close() {
	for sc, rt := range o.rts {
		_ = rt.VM().Close()
		delete(o.rts, sc)
	}
}

// expect returns the outcome the daemon must give raw under scheme sc.
func (o *programOracle) expect(raw []byte, sc mte4jni.Scheme) (outcome, error) {
	p, err := analysis.ParseProgram(raw)
	if err != nil {
		return outcome{}, err
	}
	v := analysis.Screen(p)
	if v.Rejected() {
		return outcome{Status: 422}, nil
	}
	for _, f := range v.Temporal {
		if f.Class.ExposedUnder(placement(sc)) {
			return outcome{Status: 422, Temporal: true}, nil
		}
	}
	return o.execute(p, sc)
}

func (o *programOracle) execute(p *analysis.Program, sc mte4jni.Scheme) (outcome, error) {
	rt := o.rts[sc]
	if rt == nil {
		var err error
		rt, err = mte4jni.New(mte4jni.Config{Scheme: sc, HeapSize: 4 << 20, Seed: 1, TagNeighborExclusion: true})
		if err != nil {
			return outcome{}, err
		}
		o.rts[sc] = rt
	}
	env, err := rt.AttachEnv("oracle")
	if err != nil {
		return outcome{}, err
	}
	ip := interp.New(env)
	for name, sum := range p.Natives {
		ip.RegisterNative(name, interp.NativeMethod{Kind: sum.Kind, Body: sum.Materialize()})
	}
	ret, fault, runErr := ip.Invoke(p.Method)
	rt.DetachEnv(env)
	rt.GC()
	if fault != nil || rt.VM().LiveObjects() != 0 {
		_ = rt.VM().Close()
		delete(o.rts, sc)
	}
	return outcome{Status: 200, OK: fault == nil && runErr == nil, Fault: fault != nil, Ret: ret}, nil
}
