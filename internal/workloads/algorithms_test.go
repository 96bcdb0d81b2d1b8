package workloads

// White-box tests of the workload algorithms themselves, independent of the
// JNI plumbing the suite-level tests exercise.

import (
	"bytes"
	"math"
	"testing"

	"mte4jni/internal/jni"
	"mte4jni/internal/vm"
)

func TestLZ77CompressesRepetitiveInput(t *testing.T) {
	repetitive := make([]byte, 8192)
	for i := range repetitive {
		repetitive[i] = "abcdabcd"[i%8]
	}
	out := lz77Compress(repetitive)
	if out >= len(repetitive)/2 {
		t.Fatalf("repetitive input compressed to %d of %d", out, len(repetitive))
	}

	random := make([]byte, 8192)
	rng := xorshift32(99)
	for i := range random {
		random[i] = byte(rng.next())
	}
	outRandom := lz77Compress(random)
	if outRandom <= out {
		t.Fatal("random input must compress worse than repetitive input")
	}
}

func TestLZ77TinyInputs(t *testing.T) {
	// Distinct bytes contain no 4-byte match, so the output is all
	// literals, whatever the length.
	for n := 0; n < 8; n++ {
		in := make([]byte, n)
		for i := range in {
			in[i] = byte(i + 1)
		}
		if out := lz77Compress(in); out != n {
			t.Fatalf("input of %d distinct literals compressed to %d tokens", n, out)
		}
	}
}

func TestXorshiftDeterministicAndNonZero(t *testing.T) {
	a, b := xorshift32(7), xorshift32(7)
	for i := 0; i < 1000; i++ {
		va, vb := a.next(), b.next()
		if va != vb {
			t.Fatal("xorshift not deterministic")
		}
		if va == 0 {
			t.Fatal("xorshift emitted zero (would stick)")
		}
	}
	var zero xorshift32
	if zero.next() == 0 {
		t.Fatal("zero seed must be rescued")
	}
}

func TestVec3Math(t *testing.T) {
	v := vec3{3, 4, 0}
	if got := v.dot(v); got != 25 {
		t.Fatalf("dot = %v", got)
	}
	n := v.norm()
	if math.Abs(n.dot(n)-1) > 1e-12 {
		t.Fatalf("norm not unit: %v", n.dot(n))
	}
	r := vec3{1, -1, 0}.norm().reflect(vec3{0, 1, 0})
	if math.Abs(r.x-1/math.Sqrt2) > 1e-12 || math.Abs(r.y-1/math.Sqrt2) > 1e-12 {
		t.Fatalf("reflect = %+v", r)
	}
	if toByte(2.0) != 255 || toByte(-1) != 0 {
		t.Fatal("toByte clamping wrong")
	}
}

func TestSphereIntersect(t *testing.T) {
	s := sphere{center: vec3{0, 0, 10}, radius: 2}
	// Ray straight at the center hits at t = 8.
	if got := s.intersect(vec3{}, vec3{0, 0, 1}); math.Abs(got-8) > 1e-9 {
		t.Fatalf("head-on intersect = %v", got)
	}
	// Ray pointing away misses.
	if got := s.intersect(vec3{}, vec3{0, 0, -1}); !math.IsInf(got, 1) {
		t.Fatalf("miss returned %v", got)
	}
	// Ray from inside hits the far wall.
	if got := s.intersect(vec3{0, 0, 10}, vec3{0, 0, 1}); math.Abs(got-2) > 1e-9 {
		t.Fatalf("inside intersect = %v", got)
	}
}

func TestImageDimAndScale(t *testing.T) {
	if imageDim(ScaleSmall) >= imageDim(ScaleDefault) {
		t.Fatal("small scale must be smaller")
	}
}

func TestNewImageDeterministic(t *testing.T) {
	img1, img2 := image(16, 42), image(16, 42)
	if img1.kind != vm.KindInt || img1.n != 16*16 || len(img1.data) != 4*16*16 {
		t.Fatalf("image is %v[%d] with %d payload bytes", img1.kind, img1.n, len(img1.data))
	}
	if !bytes.Equal(img1.data, img2.data) {
		t.Fatal("identical seeds produced different images")
	}
	for i := 0; i < 16*16; i++ {
		if a := img1.data[4*i+3]; a != 0xFF {
			t.Fatalf("pixel %d alpha = %x", i, a)
		}
	}
	if bytes.Equal(img1.data, image(16, 43).data) {
		t.Fatal("different seeds produced identical images")
	}
}

func TestNavigationRecoversKnownShortestPath(t *testing.T) {
	// The ring edges alone bound dist(0 -> k) by the sum of ring weights;
	// Verify() already checks global reachability, so here we check the
	// solver on the smallest scale end to end.
	v, err := vm.New(vm.Options{HeapSize: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	th, _ := v.AttachThread("t")
	env := jni.NewEnv(th, jni.DirectChecker{}, true)
	w := NewNavigation(ScaleSmall)
	if err := w.Setup(env); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(env); err != nil {
		t.Fatal(err)
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
	// Deterministic input: a second run must agree exactly.
	dist1 := w.dist
	if err := w.Run(env); err != nil {
		t.Fatal(err)
	}
	if w.dist != dist1 {
		t.Fatalf("Dijkstra not deterministic: %d vs %d", dist1, w.dist)
	}
}

func TestStructureFromMotionRecoversShift(t *testing.T) {
	v, err := vm.New(vm.Options{HeapSize: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	th, _ := v.AttachThread("t")
	env := jni.NewEnv(th, jni.DirectChecker{}, true)
	w := NewStructureFromMotion(ScaleSmall)
	if err := w.Setup(env); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(env); err != nil {
		t.Fatal(err)
	}
	if math.Abs(w.shiftX-7) > 1.5 || math.Abs(w.shiftY+3) > 1.5 {
		t.Fatalf("recovered shift (%.2f, %.2f), want ≈(7, -3)", w.shiftX, w.shiftY)
	}
}

func TestPatternStrings(t *testing.T) {
	if Bulk.String() != "bulk" || Intensive.String() != "intensive" {
		t.Fatal("Pattern strings wrong")
	}
}

func TestMinAbsHelpers(t *testing.T) {
	if min(3, 5) != 3 || min(5, 3) != 3 {
		t.Fatal("min wrong")
	}
	if abs(-4) != 4 || abs(4) != 4 {
		t.Fatal("abs wrong")
	}
	if absi32(-9) != 9 {
		t.Fatal("absi32 wrong")
	}
}
