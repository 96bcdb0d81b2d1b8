package redteam

import (
	"testing"

	"mte4jni"
	"mte4jni/internal/mte"
)

const testHeap = 1 << 20

func newTestHarness(t *testing.T, scheme mte4jni.Scheme, seed int64) *Harness {
	t.Helper()
	h, err := NewHarness(scheme, seed, mte.NumTags, testHeap)
	if err != nil {
		t.Fatalf("NewHarness(%v): %v", scheme, err)
	}
	t.Cleanup(func() { h.Close() })
	return h
}

// A full sequential sweep guesses every tag exactly once, so on an MTE
// scheme the trial is exactly 15 detections in 16 probes — zero variance.
func TestBruteForceSequentialExact(t *testing.T) {
	for _, scheme := range []mte4jni.Scheme{mte4jni.MTESync, mte4jni.MTEAsync} {
		h := newTestHarness(t, scheme, 42)
		atk := newBruteForceAttack(true, false)
		for trial := 0; trial < 8; trial++ {
			tr, err := atk.Run(h)
			if err != nil {
				t.Fatalf("%v trial %d: %v", scheme, trial, err)
			}
			if tr.Probes != 16 || tr.Detections != 15 {
				t.Fatalf("%v trial %d: %d detections in %d probes, want exactly 15/16", scheme, trial, tr.Detections, tr.Probes)
			}
			if !tr.Success {
				t.Fatalf("%v trial %d: the one matching guess must survive", scheme, trial)
			}
			if tr.FirstDetect == 0 {
				t.Fatalf("%v trial %d: no detection recorded", scheme, trial)
			}
			if scheme == mte4jni.MTESync {
				// Sync suppresses every detected store: only the matching
				// guess lands.
				if tr.Landed != 1 {
					t.Fatalf("sync trial %d: %d landed writes, want 1", trial, tr.Landed)
				}
			} else if tr.Landed != 16 {
				// Async is the damage window: every store lands, detected
				// or not.
				t.Fatalf("async trial %d: %d landed writes, want 16", trial, tr.Landed)
			}
		}
	}
}

// The learning attacker stops being detected the moment one probe
// survives: every probe after the first success replays the learned tag.
func TestBruteForceRetryLearns(t *testing.T) {
	h := newTestHarness(t, mte4jni.MTESync, 7)
	atk := newBruteForceAttack(true, true)
	for trial := 0; trial < 8; trial++ {
		tr, err := atk.Run(h)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !tr.Success {
			t.Fatalf("trial %d: sequential retry sweep must eventually survive", trial)
		}
		// Sequential sweep detects until it reaches the real tag, learns
		// it, and never faults again: detections + landed == probes, and
		// the detections are exactly the probes before the first survival.
		if tr.Detections+tr.Landed != tr.Probes {
			t.Fatalf("trial %d: detections %d + landed %d != probes %d", trial, tr.Detections, tr.Landed, tr.Probes)
		}
		if tr.Detections > 15 {
			t.Fatalf("trial %d: %d detections, learning attacker caps at 15", trial, tr.Detections)
		}
	}
}

// Non-MTE schemes ignore tag bits: brute-force never detects anything.
func TestBruteForceUndetectedWithoutMTE(t *testing.T) {
	for _, scheme := range []mte4jni.Scheme{mte4jni.NoProtection, mte4jni.GuardedCopy} {
		h := newTestHarness(t, scheme, 3)
		tr, err := newBruteForceAttack(false, false).Run(h)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if tr.Detections != 0 || !tr.Success || tr.Landed != tr.Probes {
			t.Fatalf("%v: %+v, want all probes landed undetected", scheme, tr)
		}
	}
}

// The async damage window: same trial, opposite damage profiles. Sync
// suppresses the first store at the instruction; async lands every write
// and reports once at the trampoline exit.
func TestAsyncWindowDamage(t *testing.T) {
	atk := newAsyncWindowAttack(4)

	hSync := newTestHarness(t, mte4jni.MTESync, 11)
	tr, err := atk.Run(hSync)
	if err != nil {
		t.Fatalf("sync: %v", err)
	}
	if tr.Detections != 1 || tr.FirstDetect != 1 || tr.Landed != 0 || tr.Success {
		t.Fatalf("sync: %+v, want immediate detection with zero landed writes", tr)
	}

	hAsync := newTestHarness(t, mte4jni.MTEAsync, 11)
	tr, err = atk.Run(hAsync)
	if err != nil {
		t.Fatalf("async: %v", err)
	}
	if tr.Detections != 1 {
		t.Fatalf("async: %d detections, want 1 (latched, reported at exit)", tr.Detections)
	}
	if tr.Landed != 5 || tr.FirstDetect != 5 || !tr.Success {
		t.Fatalf("async: %+v, want all 5 writes landed before the report", tr)
	}
}

// Detection probability must hold inside the GC scan window, and the scan
// itself must never fault from attacker activity.
func TestGCRaceDetectionHolds(t *testing.T) {
	h := newTestHarness(t, mte4jni.MTESync, 23)
	atk := newGCRaceAttack()
	tr, err := atk.Run(h)
	if err != nil {
		t.Fatalf("gc race: %v", err)
	}
	if tr.Probes != 16 {
		t.Fatalf("probes = %d, want 16", tr.Probes)
	}
	// P(detect) = 15/16 per probe; 8 of 16 would be a catastrophic
	// degradation (P < 1e-6), not noise.
	if tr.Detections < 8 {
		t.Fatalf("detections = %d/16 inside the scan window", tr.Detections)
	}
}

// The four §2.3 exploits against guarded copy itself: three structural
// misses (explicitly flagged KnownMiss) and one deferred detection.
func TestGuardedCopyBlindSpots(t *testing.T) {
	h := newTestHarness(t, mte4jni.GuardedCopy, 31)

	for _, atk := range []Attack{newOOBReadAttack(), newFarJumpAttack(), newLostUpdateAttack()} {
		tr, err := atk.Run(h)
		if err != nil {
			t.Fatalf("%s: %v", atk.Name(), err)
		}
		if tr.Detections != 0 || !tr.Success || !tr.KnownMiss {
			t.Fatalf("%s: %+v, want undetected success flagged as known miss", atk.Name(), tr)
		}
	}

	tr, err := newDeferredDetectionAttack(4).Run(h)
	if err != nil {
		t.Fatalf("deferred: %v", err)
	}
	if tr.Detections != 1 || tr.FirstDetect != tr.Probes || tr.Probes != 5 {
		t.Fatalf("deferred: %+v, want detection deferred to release after 5 probes", tr)
	}
	if !tr.Success || tr.KnownMiss {
		t.Fatalf("deferred: %+v, want detected-but-late (success, not a miss)", tr)
	}
}

// The same exploit programs against MTE sync: every one is caught at the
// first touch.
func TestBlindSpotExploitsCaughtByMTE(t *testing.T) {
	h := newTestHarness(t, mte4jni.MTESync, 37)
	for _, atk := range []Attack{newOOBReadAttack(), newFarJumpAttack(), newDeferredDetectionAttack(4)} {
		tr, err := atk.Run(h)
		if err != nil {
			t.Fatalf("%s: %v", atk.Name(), err)
		}
		if tr.FirstDetect != 1 || tr.KnownMiss {
			t.Fatalf("%s on MTE sync: %+v, want immediate detection", atk.Name(), tr)
		}
	}
	// Lost update is a copy artifact: under MTE there is no copy, so the
	// managed write survives and the attack simply fails.
	tr, err := newLostUpdateAttack().Run(h)
	if err != nil {
		t.Fatalf("lost-update: %v", err)
	}
	if tr.Success || tr.KnownMiss {
		t.Fatalf("lost-update on MTE sync: %+v, want attack failure (no copy to race)", tr)
	}
}

// A small campaign over the MTE schemes: the no-retry brute-force rows
// must match the analytic model and the report must self-certify.
func TestCampaignBruteForceModel(t *testing.T) {
	rep, err := Run(Config{
		Trials:    16,
		Seed:      5,
		Tolerance: 0.06,
		Schemes:   []mte4jni.Scheme{mte4jni.MTESync, mte4jni.MTEAsync},
		Attacks: []Attack{
			newBruteForceAttack(true, false),
			newBruteForceAttack(false, false),
			newBruteForceAttack(false, true),
		},
	})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if !rep.Pass {
		t.Fatalf("campaign failed its own model checks: %+v", rep.Checks)
	}
	if len(rep.Checks) != 4 {
		t.Fatalf("model checks = %d, want 4 (2 no-retry attacks x 2 MTE schemes)", len(rep.Checks))
	}
	for _, c := range rep.Checks {
		if !c.Pass {
			t.Errorf("%s vs %s: empirical %.4f vs analytic %.4f", c.Attack, c.Scheme, c.Empirical, c.Analytic)
		}
	}
	// The retry rows must NOT be model-checked: the learning attacker is
	// deliberately off-model (that gap motivates tag reseeding).
	for _, c := range rep.Checks {
		if c.Attack == "bruteforce/rand+retry" || c.Attack == "bruteforce/seq+retry" {
			t.Errorf("retry variant %s was model-checked", c.Attack)
		}
	}
}

// The full corpus campaign on the guarded-copy scheme accounts for every
// blind spot: detected or known-miss, never a silent hole.
func TestCampaignBlindSpotAccounting(t *testing.T) {
	rep, err := Run(Config{
		Trials:  4,
		Seed:    9,
		Schemes: []mte4jni.Scheme{mte4jni.GuardedCopy},
		Attacks: []Attack{newOOBReadAttack(), newFarJumpAttack(), newLostUpdateAttack(), newDeferredDetectionAttack(4)},
	})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if !rep.BlindSpotsAccounted || !rep.Pass {
		t.Fatalf("blind spots unaccounted: %+v", rep.Rows)
	}
	for _, row := range rep.Rows {
		if row.DetectedTrials == 0 && row.KnownMisses == 0 {
			t.Errorf("row %s/%s: neither detected nor known-miss", row.Attack, row.Scheme)
		}
	}
}

// The serving-tier probe is deterministic per scheme — the property the
// load generator's exact reconciliation rests on.
func TestServingProbeDeterministic(t *testing.T) {
	for _, scheme := range mte4jni.Schemes() {
		rt, err := mte4jni.New(mte4jni.Config{Scheme: scheme, HeapSize: testHeap, TagNeighborExclusion: true, Seed: 13})
		if err != nil {
			t.Fatalf("New(%v): %v", scheme, err)
		}
		env, err := rt.AttachEnv("probe-test")
		if err != nil {
			t.Fatalf("AttachEnv: %v", err)
		}
		for i := 0; i < 4; i++ {
			res, perr := ServingProbe(env)
			if perr != nil {
				t.Fatalf("%v probe %d: %v", scheme, i, perr)
			}
			if scheme.MTE() && res.Fault == nil {
				t.Fatalf("%v probe %d: forged store went undetected", scheme, i)
			}
			if !scheme.MTE() && res.Fault != nil {
				t.Fatalf("%v probe %d: unexpected fault %v", scheme, i, res.Fault)
			}
			if scheme == mte4jni.MTESync && res.Landed {
				t.Fatalf("sync probe %d landed", i)
			}
			if scheme != mte4jni.MTESync && !res.Landed {
				t.Fatalf("%v probe %d did not land", scheme, i)
			}
		}
		rt.DetachEnv(env)
		rt.VM().Close()
	}
}
