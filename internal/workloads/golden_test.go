package workloads_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"mte4jni/internal/jni"
	"mte4jni/internal/mte"
	"mte4jni/internal/vm"
	"mte4jni/internal/workloads"
)

// setupGolden is the sha256 of the Java objects each workload's Setup
// allocates (see setupDigest), per scale. The values were computed with
// inputs generated element by element inside Setup; publishing prebuilt
// bytes must leave the same heap.
var setupGolden = map[workloads.Scale]map[string]string{
	workloads.ScaleSmall: {
		"Asset Compression":     "a3aca571621e61e51159a8540362bf8d0c1dc90d0ef77e45cd542b4b543e14ef",
		"Background Blur":       "9b8314160774729e885d104d781a96d365259b0abdb4d82c860350b915687ef2",
		"Clang":                 "4e83691828922e0219f3ae021954c107deadd837f03b6f3b6276adde52866751",
		"File Compression":      "139e90283261a2c4ae7738638b1c38bf1f64f51b671bf5189ac8d6b858ae31af",
		"HDR":                   "d4749cbee16a5274d2f91a71c829fb2a8a6b4c40c0419c3dfd429243b765f17d",
		"HTML5 Browser":         "c33829918af3a30954495452bbe93b72a1a9ea59e68e1b5d3eb356abc0df1c7e",
		"Horizon Detection":     "811ddd9ecf4b1cd37a69b0580dc5514c483664a728b142d2295ec7011bf080c4",
		"Navigation":            "70542512ce206020832100448c2be8aef85a16eaa35c0be76c720d068aac9a1b",
		"Object Detection":      "7341da4ca04b9ae64dd52f58e4fc8f751d5e45b714cee972058abfbb9a91d174",
		"Object Remover":        "fcd0f7ca1eb74b041d44a26eccb2d59e40e86814cd4dfcd7476f482176b25fbe",
		"PDF Renderer":          "3095847da450d236e43da24a2d2148a164780b74f51e6adbf5ab28341ffcf8c5",
		"Photo Filter":          "3dfca8aa678db0d5d2052bdc9c15786885e8f8ae8cfec922280c775b0a77ab9c",
		"Photo Library":         "e359eb26465709bad5d6a021a1c4c325ff889de5bd4ee0b017928ccb78b4e4e1",
		"Ray Tracer":            "576321597f5e27a636408bd5e7d7455ec0a969a1e6cdbf8de9fc5ecb635beb28",
		"Structure from Motion": "ab28ad082d4a6e4aa5efc6d962542ddaedfedb07e9f1317cfe5d99e09026238c",
		"Text Processing":       "0ae7c5507a50e96d6499f9a9f644870673dda838fbea6ecebb9625f4a2b2c411",
	},
	workloads.ScaleDefault: {
		"Asset Compression":     "33c7a4b6ead5714771d44297a52d8718c928b2539a71115df186440aa9d18e24",
		"Background Blur":       "6c1cc8c0ef6a3c0f99653f8dbf03a9ae928b67faade92b15d1221dc363c83ad7",
		"Clang":                 "bf2ea70cd1db5cb7e5e0d0770529f8cf4fb7f312ca55322d866b040c6a62270c",
		"File Compression":      "bb234c7aa7afaea86e80f76b28d3ac99da8486dfbea5d6b6b1b26c1831f6ca9b",
		"HDR":                   "34cbabd05ebffb9b76f4e42ade56db8b4e49a4d80d668fc329e345663a08e4cd",
		"HTML5 Browser":         "5b207d5ae57e7e73faf3bdde463cdb1ea7e3733ba9425af130c7471d4f993ce4",
		"Horizon Detection":     "8e2d2b072b2364b0b036e1b79d464d944697b36349ae751287b1166573a8393b",
		"Navigation":            "9a7dca495e9c691bd53a9230a1161c3e0cde80f337d41d7ad761a9398f1a6294",
		"Object Detection":      "9cfaae4007d11ff6c0a378d1d40a6d6e9f73d1e3bacc8ddb6901b8961957b9cc",
		"Object Remover":        "e0664c4be435b2346579a5040b1fb51f8248e9c5b948b03ae107737445a71c70",
		"PDF Renderer":          "156d608d0d28aefa19de31f11a2cd29473a0d40e9f1e1e7172c7918610e56de7",
		"Photo Filter":          "b046647cd95e0772f92e77725e7b1cae43cfdb423141e0d3cb9df78a4b4522aa",
		"Photo Library":         "78a6502f98891364c96f815567e3199799a45ca6a66cf083cd9312cdc98b8bcb",
		"Ray Tracer":            "4db79277e8bf2d741a80d17c2cafa6858eb2d2c14c9459092c118c19f208bc5f",
		"Structure from Motion": "d7611ff42d462cfc62d7783a406c10dbac2a23bdd88f4f8d3a85964feb31361c",
		"Text Processing":       "27e5251319e84e52df3bc845ca01dd377132a515efa094576ba75ced9e8bc54d",
	},
}

// setupDigest runs w.Setup on env and hashes the objects it allocated, in
// address order: each object's header and payload bytes. Addresses and
// alignment padding are left out, so the digest is the same under every
// scheme and however full the heap already is.
func setupDigest(t *testing.T, env *jni.Env, w workloads.Workload) string {
	t.Helper()
	v := env.VM()
	before := make(map[mte.Addr]bool)
	v.JavaHeap.ForEach(func(addr mte.Addr, _ uint64) { before[addr] = true })
	if err := w.Setup(env); err != nil {
		t.Fatalf("%s setup: %v", w.Name(), err)
	}
	h := sha256.New()
	v.JavaHeap.ForEach(func(addr mte.Addr, _ uint64) {
		if before[addr] {
			return
		}
		o, ok := v.ObjectAt(addr)
		if !ok {
			t.Fatalf("%s: heap block %v has no object", w.Name(), addr)
		}
		buf := make([]byte, vm.HeaderSize+o.DataSize())
		if err := v.JavaHeap.Mapping().ReadRaw(addr, buf); err != nil {
			t.Fatal(err)
		}
		h.Write(buf)
	})
	return hex.EncodeToString(h.Sum(nil))
}

// TestSetupHeapGolden pins the Java heap every Setup leaves, at both
// scales and under all four schemes. Each workload then runs once and sets
// up again in the same runtime: the second Setup must publish the same
// bytes, so no run can have written through to the shared inputs and no
// Java array aliases them.
func TestSetupHeapGolden(t *testing.T) {
	for _, scale := range []workloads.Scale{workloads.ScaleSmall, workloads.ScaleDefault} {
		for _, scheme := range []string{"none", "guarded", "mte-sync", "mte-async"} {
			env := newEnv(t, scheme)
			for _, w := range workloads.All(scale) {
				want := setupGolden[scale][w.Name()]
				if got := setupDigest(t, env, w); got != want {
					t.Errorf("scale %d %s %s: Setup heap digest %s, want %s", scale, scheme, w.Name(), got, want)
				}
				if fault, err := env.CallNative(w.Name(), jni.Regular, w.Run); fault != nil || err != nil {
					t.Fatalf("scale %d %s %s: fault=%v err=%v", scale, scheme, w.Name(), fault, err)
				}
				if got := setupDigest(t, env, w); got != want {
					t.Errorf("scale %d %s %s: Setup after Run digest %s, want %s", scale, scheme, w.Name(), got, want)
				}
			}
		}
	}
}
