package redteam

import (
	"fmt"
	"math"

	"mte4jni"
	"mte4jni/internal/mte"
)

// Campaign configuration. The zero value is filled with usable defaults by
// Run.
type Config struct {
	// Trials per (attack, scheme) pair.
	Trials int
	// Seed makes the whole campaign reproducible; per-pair harness seeds
	// are derived from it.
	Seed int64
	// MaxProbes is the per-trial probe budget for the sweeping strategies.
	MaxProbes int
	// Tolerance is the acceptable absolute deviation of the no-retry
	// brute-force per-probe detection rate from the analytic 15/16.
	Tolerance float64
	// HeapSize for each attack runtime's managed heap.
	HeapSize uint64
	// Schemes under attack; defaults to all four.
	Schemes []mte4jni.Scheme
	// Attacks to run; defaults to Corpus().
	Attacks []Attack
}

// Corpus returns the full attack corpus: the four brute-force variants,
// the async damage window, the GC-scan race, and the four §2.3
// guarded-copy blind-spot exploits.
func Corpus() []Attack {
	return []Attack{
		newBruteForceAttack(true, false),
		newBruteForceAttack(false, false),
		newBruteForceAttack(true, true),
		newBruteForceAttack(false, true),
		newAsyncWindowAttack(4),
		newGCRaceAttack(),
		newOOBReadAttack(),
		newFarJumpAttack(),
		newLostUpdateAttack(),
		newDeferredDetectionAttack(4),
	}
}

// Row is one (attack, scheme) cell of the coverage report.
type Row struct {
	Attack string `json:"attack"`
	Class  string `json:"class"`
	Scheme string `json:"scheme"`
	Trials int    `json:"trials"`
	Probes int    `json:"probes"`
	// Detections and DetectionProbability are per-probe; DetectedTrials
	// and MeanProbesToDetect are per-trial (mean of FirstDetect over
	// detected trials).
	Detections           int     `json:"detections"`
	DetectionProbability float64 `json:"detection_probability"`
	DetectedTrials       int     `json:"detected_trials"`
	MeanProbesToDetect   float64 `json:"mean_probes_to_detect"`
	// LandedWrites counts forged/OOB writes that reached memory;
	// UndetectedSuccesses counts trials where the attacker met its goal
	// without detection; KnownMisses counts the subset that are documented
	// blind spots of the scheme under test.
	LandedWrites        int `json:"landed_writes"`
	UndetectedSuccesses int `json:"undetected_successes"`
	KnownMisses         int `json:"known_misses"`
}

// WithinK is one point of the detect-within-k-probes curve next to its
// memoryless analytic value 1 - (1/16)^k.
type WithinK struct {
	K         int     `json:"k"`
	Empirical float64 `json:"empirical"`
	Analytic  float64 `json:"analytic"`
}

// ModelCheck compares a no-retry brute-force row against the analytic
// model. The per-probe rate is the gated quantity (its sample size is
// trials x probes); the within-k curve is reported for the coverage story.
type ModelCheck struct {
	Attack    string  `json:"attack"`
	Scheme    string  `json:"scheme"`
	Empirical float64 `json:"empirical_per_probe"`
	// Analytic is 15/16: the probe misses unless its guess equals the
	// object's 4-bit tag.
	Analytic  float64   `json:"analytic_per_probe"`
	Deviation float64   `json:"deviation"`
	Exact     bool      `json:"exact"` // sequential sweeps admit an equality check
	WithinK   []WithinK `json:"detect_within_k"`
	Pass      bool      `json:"pass"`
}

// Report is the campaign's JSON coverage report.
type Report struct {
	Trials    int          `json:"trials"`
	Seed      int64        `json:"seed"`
	MaxProbes int          `json:"max_probes"`
	Tolerance float64      `json:"tolerance"`
	Rows      []Row        `json:"rows"`
	Checks    []ModelCheck `json:"bruteforce_model_checks"`
	// BlindSpotsAccounted reports that every §2.3 exploit row on the
	// guarded-copy scheme ended as either detected or an explicit
	// known-miss — never a silent undetected success.
	BlindSpotsAccounted bool `json:"blind_spots_accounted"`
	Pass                bool `json:"pass"`
}

// analyticPerProbe is the memoryless brute-force detection probability: a
// uniform guess over 16 tags hits the object's tag with probability 1/16
// regardless of what that tag is.
const analyticPerProbe = 15.0 / 16.0

// Run executes the campaign and reduces it to a Report. An error is a
// harness failure; attack outcomes (including undetected successes) are
// report content, not errors.
func Run(cfg Config) (*Report, error) {
	if cfg.Trials <= 0 {
		cfg.Trials = 64
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MaxProbes <= 0 {
		cfg.MaxProbes = mte.NumTags
	}
	if cfg.Tolerance <= 0 {
		cfg.Tolerance = 0.05
	}
	if cfg.HeapSize == 0 {
		cfg.HeapSize = 1 << 20
	}
	if cfg.Schemes == nil {
		cfg.Schemes = mte4jni.Schemes()
	}
	if cfg.Attacks == nil {
		cfg.Attacks = Corpus()
	}

	rep := &Report{
		Trials:              cfg.Trials,
		Seed:                cfg.Seed,
		MaxProbes:           cfg.MaxProbes,
		Tolerance:           cfg.Tolerance,
		BlindSpotsAccounted: true,
		Pass:                true,
	}
	pair := 0
	for _, atk := range cfg.Attacks {
		for _, scheme := range cfg.Schemes {
			pair++
			row, trials, err := runPair(cfg, atk, scheme, cfg.Seed+int64(pair)*7919)
			if err != nil {
				return nil, fmt.Errorf("%s vs %s: %w", atk.Name(), scheme, err)
			}
			rep.Rows = append(rep.Rows, row)
			if atk.Class() == "guardedcopy" && scheme == mte4jni.GuardedCopy {
				// Acceptance: each blind-spot exploit is detected or an
				// explicit known-miss; a silent undetected success means
				// the exploit or its accounting is broken.
				if row.UndetectedSuccesses > row.KnownMisses && row.DetectedTrials == 0 {
					rep.BlindSpotsAccounted = false
					rep.Pass = false
				}
			}
			if bf, ok := atk.(*bruteForce); ok && !bf.retry && scheme.MTE() {
				check := modelCheck(bf, scheme, row, trials, cfg.Tolerance)
				rep.Checks = append(rep.Checks, check)
				if !check.Pass {
					rep.Pass = false
				}
			}
		}
	}
	return rep, nil
}

// runPair runs cfg.Trials trials of one attack against one scheme on a
// dedicated harness.
func runPair(cfg Config, atk Attack, scheme mte4jni.Scheme, seed int64) (Row, []Trial, error) {
	h, err := NewHarness(scheme, seed, cfg.MaxProbes, cfg.HeapSize)
	if err != nil {
		return Row{}, nil, err
	}
	defer h.Close()
	row := Row{
		Attack: atk.Name(),
		Class:  atk.Class(),
		Scheme: scheme.String(),
		Trials: cfg.Trials,
	}
	trials := make([]Trial, 0, cfg.Trials)
	sumFirst := 0
	for i := 0; i < cfg.Trials; i++ {
		tr, terr := atk.Run(h)
		if terr != nil {
			return row, nil, fmt.Errorf("trial %d: %w", i, terr)
		}
		trials = append(trials, tr)
		row.Probes += tr.Probes
		row.Detections += tr.Detections
		row.LandedWrites += tr.Landed
		if tr.FirstDetect > 0 {
			row.DetectedTrials++
			sumFirst += tr.FirstDetect
		}
		if tr.Success {
			row.UndetectedSuccesses++
		}
		if tr.KnownMiss {
			row.KnownMisses++
		}
	}
	if row.Probes > 0 {
		row.DetectionProbability = float64(row.Detections) / float64(row.Probes)
	}
	if row.DetectedTrials > 0 {
		row.MeanProbesToDetect = float64(sumFirst) / float64(row.DetectedTrials)
	}
	return row, trials, nil
}

// modelCheck gates a no-retry brute-force row against the analytic model.
func modelCheck(bf *bruteForce, scheme mte4jni.Scheme, row Row, trials []Trial, tol float64) ModelCheck {
	c := ModelCheck{
		Attack:    bf.name,
		Scheme:    scheme.String(),
		Empirical: row.DetectionProbability,
		Analytic:  analyticPerProbe,
		Exact:     bf.sequential,
	}
	c.Deviation = math.Abs(c.Empirical - c.Analytic)
	for _, k := range []int{1, 2, 4, 8} {
		hit := 0
		for _, tr := range trials {
			if tr.FirstDetect > 0 && tr.FirstDetect <= k {
				hit++
			}
		}
		c.WithinK = append(c.WithinK, WithinK{
			K:         k,
			Empirical: float64(hit) / float64(len(trials)),
			Analytic:  1 - math.Pow(1.0/16.0, float64(k)),
		})
	}
	if bf.sequential {
		// A full 16-guess sweep hits the object's tag exactly once: the
		// detection count is exactly 15 per 16 probes, no variance.
		c.Pass = row.Detections*16 == row.Probes*15
	} else {
		c.Pass = c.Deviation <= tol
	}
	return c
}
