package redteam

import (
	"fmt"

	"mte4jni"
	"mte4jni/internal/mte"
)

// asyncWindow exploits the asynchronous-TCF reporting gap (Figure 4(c)):
// under TCFAsync a mismatched store *lands* and only latches a fault that
// surfaces at the next synchronization point — the trampoline exit. The
// attack stores through a guaranteed-wrong tag, then keeps mutating in the
// window between the fault and its report, and finally verifies through the
// true pointer that every write reached memory. A trial's verdict
// quantifies the window: under sync TCF detection is immediate and Landed
// stays 0 (the faulting store is suppressed at the instruction); under
// async TCF the same trial reports detection *and* damageOps landed writes
// — detected, but only after the damage was done.
type asyncWindow struct {
	// damageOps is how many extra stores the attacker squeezes into the
	// window after the first (already-latched) violation.
	damageOps int
}

// newAsyncWindowAttack returns the async-TCF damage-window exploit with
// damageOps mutations issued between the fault and its report.
func newAsyncWindowAttack(damageOps int) Attack {
	if damageOps <= 0 {
		damageOps = 4
	}
	return &asyncWindow{damageOps: damageOps}
}

func (a *asyncWindow) Name() string  { return "async-window/damage" }
func (a *asyncWindow) Class() string { return "async-window" }

func (a *asyncWindow) Run(h *Harness) (Trial, error) {
	var tr Trial
	arr, p, err := h.acquireTarget()
	if err != nil {
		return tr, err
	}
	// Guaranteed mismatch: flip the low tag bit of whatever the scheme
	// handed out. Under non-MTE schemes tag bits are ignored and every
	// store lands undetected.
	wrong := p.Tag() ^ 0x1
	landed := make([]bool, a.damageOps+1)
	fault, cerr := h.env.CallNative("redteam_async_window", mte4jni.Regular, func(env *mte4jni.Env) error {
		for i := 0; i <= a.damageOps; i++ {
			// Each iteration is one mutation in the damage window. Under
			// sync TCF the first store panics and nothing below runs.
			forged := p.WithTag(wrong).Add(int64(4 * i))
			env.StoreInt(forged, int32(0xDA3A0000+i))
			// Read back through the true pointer: did the write land?
			landed[i] = env.LoadInt(p.Add(int64(4*i))) == int32(0xDA3A0000+i)
		}
		return nil
	})
	if cerr != nil {
		return tr, cerr
	}
	tr.Probes = a.damageOps + 1
	for _, l := range landed {
		if l {
			tr.Landed++
		}
	}
	if fault != nil {
		tr.Detections++
		if h.scheme == mte4jni.MTEAsync {
			// The report surfaced at the trampoline exit, after every
			// probe: the whole window preceded detection.
			tr.FirstDetect = tr.Probes
		} else {
			tr.FirstDetect = 1
		}
	}
	// The attacker's goal is damage that precedes (or escapes) the report.
	tr.Success = tr.Landed > 0
	if violation, rerr := h.releaseTarget(arr, p); rerr != nil {
		return tr, rerr
	} else if violation && tr.FirstDetect == 0 {
		tr.Detections++
		tr.FirstDetect = tr.Probes
	}
	return tr, nil
}

// gcRace interleaves randomized brute-force probing with the collector's
// concurrent scan of the same heap. The scan window is the risky interval:
// the GC reads every live object's payload while the attacker's native
// thread fires forged stores at one of them. The trial checks two
// properties at once — detection probability must not degrade inside the
// window (the per-object scan synchronization serializes the scan against
// stores without masking tag checks), and the scan itself must stay
// fault-free (the collector reads with correctly tagged references, so
// attacker activity must never make the *GC* crash).
type gcRace struct{}

// newGCRaceAttack returns the GC-scan-window race: brute-force probing
// concurrent with ConcurrentScan over the same heap.
func newGCRaceAttack() Attack { return &gcRace{} }

func (a *gcRace) Name() string  { return "gc-race/scan-window" }
func (a *gcRace) Class() string { return "gc-race" }

func (a *gcRace) Run(h *Harness) (Trial, error) {
	var tr Trial
	arr, p, err := h.acquireTarget()
	if err != nil {
		return tr, err
	}
	v := h.rt.VM()
	gcTh, err := v.NewGCThread()
	if err != nil {
		return tr, err
	}
	stop := make(chan struct{})
	scanErr := make(chan error, 1)
	go func() {
		defer close(scanErr)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if f, _ := v.ConcurrentScan(gcTh.Ctx()); f != nil {
				scanErr <- fmt.Errorf("redteam: GC scan faulted during attack: %v", f)
				return
			}
		}
	}()
	var perr error
	for i := 0; i < h.maxProbes; i++ {
		guess := mte.Tag(h.rng.Intn(mte.NumTags))
		detected, landed, e := h.forgedStore(p, guess, int32(0x6C0000+i))
		if e != nil {
			perr = e
			break
		}
		tr.Probes++
		if landed {
			tr.Landed++
		}
		if detected {
			tr.Detections++
			if tr.FirstDetect == 0 {
				tr.FirstDetect = tr.Probes
			}
		} else {
			tr.Success = true
		}
	}
	close(stop)
	if serr := <-scanErr; serr != nil && perr == nil {
		perr = serr
	}
	v.DetachThread(gcTh)
	if perr != nil {
		return tr, perr
	}
	if violation, rerr := h.releaseTarget(arr, p); rerr != nil {
		return tr, rerr
	} else if violation && tr.FirstDetect == 0 {
		tr.Detections++
		tr.FirstDetect = tr.Probes
	}
	return tr, nil
}
