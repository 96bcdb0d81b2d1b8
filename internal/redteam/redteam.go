// Package redteam is the adversarial half of the reproduction: a corpus of
// adaptive attacker programs that probe the protection schemes the way a
// real exploit would — observing outcomes and adjusting — plus the harness
// that drives each strategy to a detection/success verdict.
//
// The paper's evaluation (§5) measures what protection *costs*; it never
// measures what protection *catches*. TikTag (PAPERS.md) showed that MTE's
// 4-bit probabilistic guarantee, not its overhead, is the actual attack
// surface, and MTE4JNI §2.3 itself concedes four guarded-copy blind spots
// without ever exercising them. This package turns both concessions into
// executable programs:
//
//   - tag brute-forcing against 4-bit entropy (bruteforce.go): sequential
//     and randomized sweeps, with and without same-tag retry after a
//     survived probe. The no-retry variants must empirically match the
//     analytic 15/16-per-probe detection model; the retry variants show why
//     a memoryless model flatters the defender — a learning attacker who
//     keeps a surviving tag is detected at most once, which is exactly the
//     gap the serving tier's tag-reseed defense closes.
//   - async-TCF damage windows (window.go): mutate between the fault and
//     its report, then verify the write landed — Figure 4(c)'s imprecision
//     as an exploit primitive.
//   - GC-scan-window races (window.go): brute-force probing concurrent
//     with the collector's scan of the same heap, checking that detection
//     probability holds inside the scan window and the scan itself stays
//     fault-free.
//   - the four §2.3 guarded-copy blind spots (guardedcopy.go) as concrete
//     exploit programs: out-of-bounds reads, far out-of-bounds writes that
//     jump both red zones, the lost-update copy-back race, and deferred
//     detection (damage accrues until Release).
//
// campaign.go fans the corpus across all four schemes and reduces the
// trials to a coverage report: detection probability per attack class x
// scheme, mean probes-to-detection, and the brute-force-vs-analytic model
// check the redteam smoke gate enforces. probe.go exports the single
// deterministic probe the serving tier's canned "attack" request uses.
//
// Encapsulation: the attacker constructors (new*Attack) are unexported, so
// every exploit the repo can express is enumerated here, where the
// campaign measures it.
package redteam

import (
	"fmt"
	"math/rand"

	"mte4jni"
	"mte4jni/internal/mte"
	"mte4jni/internal/vm"
)

// targetLen is the int[] length every attack targets: 16 ints = 64 bytes =
// 4 granules, small enough that a trial's working set is one object.
const targetLen = 16

// Trial is the outcome of running one attack strategy to completion.
type Trial struct {
	// Probes is the number of attack probes issued.
	Probes int
	// Detections is the number of probes the scheme detected (a fault, or
	// for guarded copy a Release-time violation attributed to the probe
	// that corrupted the zone).
	Detections int
	// FirstDetect is the 1-based probe index at which the scheme first
	// detected the attack; 0 when the whole trial went undetected. For
	// deferred-detection schemes this is where the *report* landed, not
	// where the damage happened — the gap is the finding.
	FirstDetect int
	// Landed counts forged or out-of-bounds writes that actually reached
	// memory (always true for undetected probes; also true for detected
	// probes under async TCF, where the report trails the store).
	Landed int
	// Success reports whether the attacker achieved its goal at least once
	// without that probe being detected.
	Success bool
	// KnownMiss marks an undetected trial of an attack the paper itself
	// documents as a blind spot of the scheme under test (§2.3 for guarded
	// copy) — expected, but worth a counter rather than silence.
	KnownMiss bool
}

// Attack is one adversarial strategy. Run executes a single trial against
// the harness's runtime and returns the verdict; the campaign aggregates
// trials into per-class x per-scheme rows.
type Attack interface {
	// Name identifies the concrete strategy (e.g. "bruteforce/seq").
	Name() string
	// Class groups strategies for reporting: "bruteforce", "async-window",
	// "gc-race", "guardedcopy".
	Class() string
	// Run executes one trial. A returned error is a harness failure
	// (broken plumbing), never an attack outcome.
	Run(h *Harness) (Trial, error)
}

// Harness owns one runtime per (attack, scheme) pair and the per-trial
// machinery: target allocation, the forged-store probe, and the RNG the
// adaptive strategies draw from. One runtime serves every trial of the
// pair — each trial attacks a fresh array, whose tag is drawn fresh from
// the shared RNG on the refs-0→1 acquisition — so campaigns do not pay a
// VM construction per trial.
type Harness struct {
	scheme    mte4jni.Scheme
	rt        *mte4jni.Runtime
	env       *mte4jni.Env
	rng       *rand.Rand
	maxProbes int
}

// NewHarness builds a harness for scheme with the given RNG seed and
// per-trial probe budget. Close must be called to release the runtime.
func NewHarness(scheme mte4jni.Scheme, seed int64, maxProbes int, heapSize uint64) (*Harness, error) {
	if maxProbes <= 0 {
		maxProbes = mte.NumTags
	}
	rt, err := mte4jni.New(mte4jni.Config{
		Scheme:               scheme,
		HeapSize:             heapSize,
		TagNeighborExclusion: true,
		Seed:                 seed,
	})
	if err != nil {
		return nil, err
	}
	env, err := rt.AttachEnv("redteam")
	if err != nil {
		rt.VM().Close()
		return nil, err
	}
	return &Harness{
		scheme:    scheme,
		rt:        rt,
		env:       env,
		rng:       rand.New(rand.NewSource(seed)),
		maxProbes: maxProbes,
	}, nil
}

// Scheme returns the protection scheme under attack.
func (h *Harness) Scheme() mte4jni.Scheme { return h.scheme }

// MaxProbes returns the per-trial probe budget.
func (h *Harness) MaxProbes() int { return h.maxProbes }

// Close detaches the attack thread and tears down the runtime.
func (h *Harness) Close() error {
	h.rt.DetachEnv(h.env)
	return h.rt.VM().Close()
}

// acquireTarget allocates a fresh int[targetLen] and pins its payload with
// GetPrimitiveArrayCritical. Holding the critical acquisition across a
// whole trial is deliberate: the protector draws a fresh random tag on
// every refs-0→1 acquisition, so releasing between probes would hand the
// brute-forcer a moving target and make the within-trial learning variants
// meaningless. The returned pointer is what the scheme handed the
// "attacker-controlled" native library: tagged under MTE, a guarded copy
// under GuardedCopy, raw under NoProtection.
func (h *Harness) acquireTarget() (*vm.Object, mte.Ptr, error) {
	arr, err := h.rt.VM().NewIntArray(targetLen)
	if err != nil {
		return nil, 0, err
	}
	var p mte.Ptr
	fault, cerr := h.env.CallNative("redteam_acquire", mte4jni.Regular, func(env *mte4jni.Env) error {
		var aerr error
		p, aerr = env.GetPrimitiveArrayCritical(arr)
		return aerr
	})
	if cerr != nil {
		return nil, 0, cerr
	}
	if fault != nil {
		return nil, 0, fmt.Errorf("redteam: acquire faulted: %v", fault)
	}
	return arr, p, nil
}

// releaseTarget releases the trial's critical acquisition. The returned
// violation (guarded copy's Release-time canary check) is an attack
// outcome, not an error; it comes back as the bool.
func (h *Harness) releaseTarget(arr *vm.Object, p mte.Ptr) (violation bool, err error) {
	var relErr error
	fault, cerr := h.env.CallNative("redteam_release", mte4jni.Regular, func(env *mte4jni.Env) error {
		relErr = env.ReleasePrimitiveArrayCritical(arr, p, mte4jni.ReleaseDefault)
		return nil
	})
	if cerr != nil {
		return false, cerr
	}
	if fault != nil {
		return false, fmt.Errorf("redteam: release faulted: %v", fault)
	}
	return relErr != nil, nil
}

// forgedStore issues one probe: a 4-byte store through p retagged to guess,
// then an in-native read-back through the true pointer to learn whether the
// write landed. Returns the scheme's verdict:
//
//   - detected: the trampoline surfaced a fault (sync: at the faulting
//     store; async: latched and reported at the exit synchronization
//     point).
//   - landed: the read-back through the true pointer observed the probe's
//     value — under sync TCF a detected probe never lands (the store was
//     suppressed by the signal), under async TCF it always does (the
//     damage window), and an undetected probe landed by definition.
func (h *Harness) forgedStore(p mte.Ptr, guess mte.Tag, val int32) (detected, landed bool, err error) {
	forged := p.WithTag(guess)
	var readBack int32
	sawStore := false
	fault, cerr := h.env.CallNative("redteam_probe", mte4jni.Regular, func(env *mte4jni.Env) error {
		env.StoreInt(forged, val)
		// Only reached when the store did not synchronously fault: read the
		// cell through the *true* pointer so async-landed damage is visible.
		sawStore = true
		readBack = env.LoadInt(p)
		return nil
	})
	if cerr != nil {
		return false, false, cerr
	}
	return fault != nil, sawStore && readBack == val, nil
}
