package redteam

import "mte4jni/internal/mte"

// Tag brute-forcing against 4-bit entropy. The attacker holds a pointer it
// is not entitled to use (modelled here as the handed-out critical pointer
// with its tag bits under attacker control) and sweeps guesses at the
// 16-tag space. Analytics the campaign checks the empirical rates against:
//
//   - Memoryless guessing (no retry): each probe is detected unless the
//     guess equals the object's tag, so P(detect per probe) = 15/16 and
//     P(detected within k probes) = 1 - (1/16)^k.
//   - Sequential sweep (no retry): guesses 0..15 each exactly once; the
//     object's tag appears exactly once in the sweep, so a full trial is
//     *exactly* 15 detections in 16 probes — 15/16 with zero variance,
//     which is why the smoke gate can check it as an equality.
//   - Retry (learning) variants: after a probe survives, the attacker has
//     learned the tag and replays it forever. Detections stop the moment
//     one probe survives, so per-probe detection probability collapses
//     toward k/16 per trial — the measurement that motivates the serving
//     tier's tag-reseed-on-suspicion defense: a reseed makes the learned
//     tag stale and forces the attacker back onto the 15/16 treadmill.
//
// Under non-MTE schemes tag bits are ignored by the access path, every
// probe "survives", and the rows report a detection probability of zero —
// the coverage story the cost-only benchmarks never told.
type bruteForce struct {
	name       string
	sequential bool
	retry      bool
}

// newBruteForceAttack returns a tag brute-forcing strategy. sequential
// selects the in-order 0..15 sweep over uniform random guessing; retry
// selects the learning attacker that replays a surviving tag.
func newBruteForceAttack(sequential, retry bool) Attack {
	name := "bruteforce/"
	if sequential {
		name += "seq"
	} else {
		name += "rand"
	}
	if retry {
		name += "+retry"
	}
	return &bruteForce{name: name, sequential: sequential, retry: retry}
}

func (a *bruteForce) Name() string  { return a.name }
func (a *bruteForce) Class() string { return "bruteforce" }

func (a *bruteForce) Run(h *Harness) (Trial, error) {
	var tr Trial
	arr, p, err := h.acquireTarget()
	if err != nil {
		return tr, err
	}
	learned := -1
	for i := 0; i < h.maxProbes; i++ {
		var guess mte.Tag
		switch {
		case a.retry && learned >= 0:
			guess = mte.Tag(learned)
		case a.sequential:
			guess = mte.Tag(i % mte.NumTags)
		default:
			guess = mte.Tag(h.rng.Intn(mte.NumTags))
		}
		detected, landed, perr := h.forgedStore(p, guess, int32(0x5EED0000+i))
		if perr != nil {
			return tr, perr
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
			// Survived: the attacker now knows a usable tag.
			learned = int(guess)
			tr.Success = true
		}
	}
	violation, rerr := h.releaseTarget(arr, p)
	if rerr != nil {
		return tr, rerr
	}
	if violation && tr.FirstDetect == 0 {
		// Guarded copy never faults at probe time; a corrupted-zone verdict
		// at release is a detection reported after the final probe.
		tr.Detections++
		tr.FirstDetect = tr.Probes
	}
	return tr, nil
}
