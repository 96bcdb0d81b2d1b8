package redteam

import (
	"encoding/binary"

	"mte4jni"
	"mte4jni/internal/guardedcopy"
	"mte4jni/internal/mte"
)

// The four §2.3 guarded-copy blind spots as concrete exploit programs. Each
// runs against every scheme, which is the point of the cross product: the
// same program that slips past guarded copy (an expected, documented miss —
// Trial.KnownMiss) is caught immediately by the MTE schemes, turning the
// paper's prose concession into a measured detection-probability gap.
//
// Offsets are relative to the handed-out payload pointer. Under
// GuardedCopy that pointer is the copy buffer's payload, bracketed by
// RedZoneSize-byte canary zones; under the MTE schemes it is the tagged
// heap pointer itself.
const (
	// payloadBytes is the target array's payload size (targetLen ints).
	payloadBytes = targetLen * 4
	// oobReadOff lands inside the trailing red zone: reads never corrupt a
	// canary, so guarded copy is structurally blind to them (§2.3 blind
	// spot 1). Under MTE the offset sits in the neighbor-exclusion window
	// past the object, so the tag mismatch is deterministic.
	oobReadOff = payloadBytes + 8
	// farJumpOff jumps far past both red zones (§2.3 blind spot 2): the
	// write lands in unrelated native-heap memory with both canary zones
	// intact, so release-time verification passes. Far enough that no live
	// guarded buffer of this harness can sit there — a corrupted dead
	// region is re-canaried on its next acquisition, keeping trials
	// independent.
	farJumpOff = payloadBytes + guardedcopy.RedZoneSize + 4096
	// canaryOff is the first byte of the trailing red zone — the
	// deferred-detection probe corrupts exactly one canary byte there.
	canaryOff = payloadBytes
)

// oobRead is §2.3 blind spot 1: out-of-bounds *reads*. Guarded copy's only
// sensor is canary integrity at release, and a read corrupts nothing, so
// an attacker can leak adjacent native-heap memory without leaving a
// trace. MTE checks loads and stores alike.
type oobRead struct{}

// newOOBReadAttack returns the out-of-bounds read exploit.
func newOOBReadAttack() Attack { return &oobRead{} }

func (a *oobRead) Name() string  { return "guardedcopy/oob-read" }
func (a *oobRead) Class() string { return "guardedcopy" }

func (a *oobRead) Run(h *Harness) (Trial, error) {
	var tr Trial
	arr, p, err := h.acquireTarget()
	if err != nil {
		return tr, err
	}
	fault, cerr := h.env.CallNative("redteam_oob_read", mte4jni.Regular, func(env *mte4jni.Env) error {
		_ = env.LoadInt(p.Add(oobReadOff))
		return nil
	})
	if cerr != nil {
		return tr, cerr
	}
	tr.Probes = 1
	if fault != nil {
		tr.Detections, tr.FirstDetect = 1, 1
	}
	violation, rerr := h.releaseTarget(arr, p)
	if rerr != nil {
		return tr, rerr
	}
	if violation && tr.FirstDetect == 0 {
		tr.Detections, tr.FirstDetect = 1, 1
	}
	if tr.FirstDetect == 0 {
		tr.Success = true
		tr.KnownMiss = h.scheme == mte4jni.GuardedCopy
	}
	return tr, nil
}

// farJump is §2.3 blind spot 2: an out-of-bounds *write* that jumps clean
// over both red zones. The canaries only witness writes that walk through
// them; a striding or offset-controlled write corrupts distant memory and
// release-time verification stays green. MTE tags every granule, so
// distance does not help the attacker.
type farJump struct{}

// newFarJumpAttack returns the far out-of-bounds write exploit.
func newFarJumpAttack() Attack { return &farJump{} }

func (a *farJump) Name() string  { return "guardedcopy/far-jump" }
func (a *farJump) Class() string { return "guardedcopy" }

func (a *farJump) Run(h *Harness) (Trial, error) {
	var tr Trial
	arr, p, err := h.acquireTarget()
	if err != nil {
		return tr, err
	}
	landed := false
	fault, cerr := h.env.CallNative("redteam_far_jump", mte4jni.Regular, func(env *mte4jni.Env) error {
		target := p.Add(farJumpOff)
		env.StoreInt(target, 0x4A4A4A4A)
		landed = env.LoadInt(target) == 0x4A4A4A4A
		return nil
	})
	if cerr != nil {
		return tr, cerr
	}
	tr.Probes = 1
	if landed {
		tr.Landed = 1
	}
	if fault != nil {
		tr.Detections, tr.FirstDetect = 1, 1
	}
	violation, rerr := h.releaseTarget(arr, p)
	if rerr != nil {
		return tr, rerr
	}
	if violation && tr.FirstDetect == 0 {
		tr.Detections, tr.FirstDetect = 1, 1
	}
	if tr.FirstDetect == 0 && landed {
		tr.Success = true
		tr.KnownMiss = h.scheme == mte4jni.GuardedCopy
	}
	return tr, nil
}

// lostUpdate is §2.3 blind spot 3, the copy-visibility race: while a
// native holds a guarded *copy*, a managed-side write to the same array
// updates the real heap — and the release-time copy-back overwrites it
// with the stale snapshot. No canary is touched, nothing faults, and a
// committed managed write silently vanishes. Under the MTE schemes the
// native works on the real payload, so the managed write survives.
type lostUpdate struct{}

// newLostUpdateAttack returns the lost-update copy-back exploit.
func newLostUpdateAttack() Attack { return &lostUpdate{} }

func (a *lostUpdate) Name() string  { return "guardedcopy/lost-update" }
func (a *lostUpdate) Class() string { return "guardedcopy" }

func (a *lostUpdate) Run(h *Harness) (Trial, error) {
	var tr Trial
	arr, err := h.rt.VM().NewIntArray(targetLen)
	if err != nil {
		return tr, err
	}
	var p mte.Ptr
	var managed [4]byte
	binary.LittleEndian.PutUint32(managed[:], 7)
	var after [4]byte
	var relErr error
	fault, cerr := h.env.CallNative("redteam_lost_update", mte4jni.Regular, func(env *mte4jni.Env) error {
		var aerr error
		// The classic Get/Release pair — the copying interface under
		// guarded copy, a direct pointer under MTE.
		p, aerr = env.GetIntArrayElements(arr)
		if aerr != nil {
			return aerr
		}
		// Managed mutator commits element 0 = 7 while the native holds its
		// handout. SetArrayRegion writes the real heap in every scheme.
		if aerr = env.SetArrayRegion(mte4jni.KindInt, arr, 0, 1, managed[:]); aerr != nil {
			return aerr
		}
		// The native touches a *different* element of whatever it was
		// handed, then releases: under guarded copy the copy-back restores
		// element 0 from the stale snapshot, erasing the managed write.
		env.StoreInt(p.Add(4), 13)
		relErr = env.ReleaseIntArrayElements(arr, p, mte4jni.ReleaseDefault)
		return env.GetArrayRegion(mte4jni.KindInt, arr, 0, 1, after[:])
	})
	if cerr != nil {
		return tr, cerr
	}
	tr.Probes = 1
	if fault != nil {
		tr.Detections, tr.FirstDetect = 1, 1
		return tr, nil
	}
	if relErr != nil {
		tr.Detections, tr.FirstDetect = 1, 1
		return tr, nil
	}
	if binary.LittleEndian.Uint32(after[:]) != 7 {
		// The committed managed write is gone and nothing reported it.
		tr.Success = true
		tr.Landed = 1
		tr.KnownMiss = h.scheme == mte4jni.GuardedCopy
	}
	return tr, nil
}

// deferredDetection is §2.3 blind spot 4: even when guarded copy *does*
// catch a violation, it reports at Release — after the native has run to
// completion. The exploit corrupts one canary byte, then keeps executing
// damage operations; probes-to-detection measures how much work the
// attacker banked before the verdict. MTE sync stops the very first store.
type deferredDetection struct {
	// damageOps is how many post-violation operations the attacker runs
	// before releasing.
	damageOps int
}

// newDeferredDetectionAttack returns the deferred-detection exploit with
// damageOps operations executed between the violation and the release.
func newDeferredDetectionAttack(damageOps int) Attack {
	if damageOps <= 0 {
		damageOps = 4
	}
	return &deferredDetection{damageOps: damageOps}
}

func (a *deferredDetection) Name() string  { return "guardedcopy/deferred" }
func (a *deferredDetection) Class() string { return "guardedcopy" }

func (a *deferredDetection) Run(h *Harness) (Trial, error) {
	var tr Trial
	arr, p, err := h.acquireTarget()
	if err != nil {
		return tr, err
	}
	// Probe 1: the violation — one byte into the trailing red zone.
	landed := false
	fault, cerr := h.env.CallNative("redteam_deferred_violate", mte4jni.Regular, func(env *mte4jni.Env) error {
		env.StoreByte(p.Add(canaryOff), 0x00)
		landed = true
		return nil
	})
	if cerr != nil {
		return tr, cerr
	}
	tr.Probes = 1
	if landed {
		tr.Landed = 1
	}
	if fault != nil {
		tr.Detections, tr.FirstDetect = 1, 1
	}
	// Probes 2..damageOps+1: in-bounds work the attacker gets to finish
	// before any deferred verdict can land.
	for i := 0; i < a.damageOps; i++ {
		f, derr := h.env.CallNative("redteam_deferred_damage", mte4jni.Regular, func(env *mte4jni.Env) error {
			env.StoreInt(p.Add(int64(4*(i%targetLen))), int32(0xBAD0000+i))
			return nil
		})
		if derr != nil {
			return tr, derr
		}
		tr.Probes++
		if f == nil {
			tr.Landed++
		}
	}
	violation, rerr := h.releaseTarget(arr, p)
	if rerr != nil {
		return tr, rerr
	}
	if violation && tr.FirstDetect == 0 {
		// Detected — but only here, after every damage op ran.
		tr.Detections++
		tr.FirstDetect = tr.Probes
	}
	if tr.FirstDetect == 0 {
		tr.Success = tr.Landed > 0
		tr.KnownMiss = h.scheme == mte4jni.GuardedCopy
	} else if tr.FirstDetect > 1 {
		// Deferred: damage preceded the report.
		tr.Success = tr.Landed > 0
	}
	return tr, nil
}
