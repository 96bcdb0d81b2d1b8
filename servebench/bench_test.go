package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"math/rand"
	"os"
	"regexp"
	"testing"

	"mte4jni/internal/analysis"
	"mte4jni/internal/fuzz"
)

// digest hashes the request bytes and arrival schedule a seed produces.
func digest(t *testing.T, name string, seed int64) [sha256.Size]byte {
	t.Helper()
	s, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	w, err := buildWorkload(name, seed, s)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, id := range []int64{streamClosed, streamOpen} {
		for _, i := range w.stream(seed, id, 3000) {
			h.Write(w.templates[i].Body)
		}
	}
	for _, at := range arrivals(seed, s.Workloads[name].OpenLoopRPS, 3000) {
		_ = binary.Write(h, binary.LittleEndian, at)
	}
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}

func TestSeedDeterminesRequestsAndSchedule(t *testing.T) {
	for _, name := range workloadNames {
		a, b, c := digest(t, name, 7), digest(t, name, 7), digest(t, name, 8)
		if a != b {
			t.Errorf("%s: seed 7 gave two different request sequences", name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same request sequence", name)
		}
	}
}

// The program oracle reuses one runtime per scheme; it must agree with a
// fresh runtime per program (fuzz.ExecuteScheme).
func TestProgramOracleMatchesFreshRuntime(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	o := newProgramOracle()
	defer o.close()
	for i := 0; i < 150; i++ {
		p, _ := fuzz.GenProgram(rng)
		if i%3 == 0 {
			p = loopProgram(rng)
		}
		if analysis.Screen(p).Rejected() {
			continue
		}
		for _, sc := range inlineSchemes {
			got, err := o.execute(p, sc)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := fuzz.ExecuteScheme(p, sc, 1)
			if err != nil {
				t.Fatal(err)
			}
			want := outcome{Status: 200, OK: ref.Fault == nil && ref.Err == nil, Fault: ref.Fault != nil, Ret: ref.Ret}
			if !want.matches(got) {
				t.Fatalf("program %d under %s: oracle %v, fresh runtime %v", i, sc, got, want)
			}
		}
	}
}

type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// A short run of every workload, untraced and traced: every reply matches
// the oracle, and the metrics emitted are exactly the ones BENCHMARK.json
// declares, with the declared units.
func TestSmokeRunsAreCorrectAndDeclared(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl declared
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			rep, err := run(context.Background(), options{workload: name, seed: 3, seconds: 1, trace: traced})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d requests failed: %v", name, traced, rep.failed, rep.attempted, rep.notes)
			}
			want := map[string]string{}
			list := decl.EndToEnd
			if traced {
				list = decl.PerLayer
			}
			for _, m := range list {
				want[m.Name] = m.Unit
			}
			for _, m := range rep.metrics {
				if !valid.MatchString(m.Name) {
					t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", m.Name)
				}
				unit, ok := want[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s is not declared", name, traced, m.Name)
				} else if unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s in %s, declared %s", name, traced, m.Name, m.Unit, unit)
				}
				delete(want, m.Name)
			}
			for m := range want {
				t.Errorf("%s trace=%v: declared metric %s not emitted", name, traced, m)
			}
		}
	}
}
