package jni_test

import (
	"strings"
	"testing"

	"mte4jni/internal/core"
	"mte4jni/internal/guardedcopy"
	"mte4jni/internal/jni"
	"mte4jni/internal/mte"
	"mte4jni/internal/vm"
)

// Failure injection: the error paths a production runtime must survive —
// exhausted heaps, misconfigured protectors, lenient CheckJNI fallbacks.

func TestGuardedCopyNativeHeapExhaustion(t *testing.T) {
	// A native heap too small for even one guarded buffer: Get must fail
	// cleanly, with the object unpinned and no ledger entry leaked.
	v, err := vm.New(vm.Options{HeapSize: 1 << 20, NativeHeapSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	th, _ := v.AttachThread("main")
	env := jni.NewEnv(th, guardedcopy.New(v), true)
	arr, err := v.NewArray(vm.KindInt, 4096) // 16 KiB payload > 4 KiB native heap
	if err != nil {
		t.Fatal(err)
	}
	fault, err := env.CallNative("oom", jni.Regular, func(e *jni.Env) error {
		_, err := e.GetPrimitiveArrayCritical(arr)
		if err == nil {
			t.Error("Get must fail when the guarded buffer cannot be allocated")
		}
		if !strings.Contains(err.Error(), "out of memory") {
			t.Errorf("unexpected error: %v", err)
		}
		return nil
	})
	if fault != nil || err != nil {
		t.Fatalf("fault=%v err=%v", fault, err)
	}
	if arr.Pinned() {
		t.Fatal("object left pinned after failed acquire")
	}
	if env.OutstandingAcquisitions() != 0 {
		t.Fatal("ledger entry leaked after failed acquire")
	}
}

func TestUTFCharsHeapExhaustion(t *testing.T) {
	// GetStringUTFChars allocates its buffer from the Java heap; when that
	// fails the call must error without leaking.
	v, err := vm.New(vm.Options{HeapSize: 8192, NativeHeapSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	th, _ := v.AttachThread("main")
	env := jni.NewEnv(th, jni.DirectChecker{}, true)

	str, err := v.NewString(strings.Repeat("x", 1024)) // ~2 KiB chars
	if err != nil {
		t.Fatal(err)
	}
	// Exhaust the remaining heap.
	for {
		if _, err := v.NewArray(vm.KindByte, 512); err != nil {
			break
		}
	}
	live := v.LiveObjects()
	if _, _, err := env.GetStringUTFChars(str); err == nil {
		t.Fatal("GetStringUTFChars must fail on heap exhaustion")
	}
	if v.LiveObjects() != live {
		t.Fatal("temporary buffer leaked on failure")
	}
}

func TestProtectorRejectsForeignAddress(t *testing.T) {
	v, err := vm.New(vm.Options{HeapSize: 1 << 20, NativeHeapSize: 1 << 20, MTE: true, CheckMode: mte.TCFSync})
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.New(v, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	th, _ := v.AttachThread("main")
	arr, _ := v.NewArray(vm.KindInt, 4)
	// Unmapped address.
	if _, err := p.Acquire(th, arr, 0xDEAD0000, 0xDEAD0040); err == nil {
		t.Fatal("Acquire on unmapped address accepted")
	}
	// Mapped but untagged (native heap): also invalid.
	na, err := v.NativeHeap.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Acquire(th, arr, na, na+64); err == nil {
		t.Fatal("Acquire on non-MTE mapping accepted")
	}
	if err := p.Release(th, arr, 0, 0xDEAD0000, 0xDEAD0040, jni.ReleaseDefault); err == nil {
		t.Fatal("Release on unmapped address accepted")
	}
}

func TestLenientReleaseWithoutCheckJNI(t *testing.T) {
	// With CheckJNI off, a wrong-but-same-object release pointer falls back
	// to object matching, as ART does when validation is disabled.
	env, _ := newEnvNoCheckJNI(t)
	arr, _ := env.NewIntArray(4)
	fault, err := env.CallNative("lenient", jni.Regular, func(e *jni.Env) error {
		p, err := e.GetPrimitiveArrayCritical(arr)
		if err != nil {
			return err
		}
		return e.ReleasePrimitiveArrayCritical(arr, p.Add(8), jni.ReleaseDefault)
	})
	if fault != nil || err != nil {
		t.Fatalf("lenient release rejected: fault=%v err=%v", fault, err)
	}
	if env.OutstandingAcquisitions() != 0 {
		t.Fatal("lenient release did not consume the acquisition")
	}
	// But a release with no acquisition at all still errors.
	if err := env.ReleasePrimitiveArrayCritical(arr, 0x1234, jni.ReleaseDefault); err == nil {
		t.Fatal("release with nothing outstanding accepted")
	}
}

// newEnvNoCheckJNI builds a direct-checker env with validation off.
func newEnvNoCheckJNI(t *testing.T) (*jni.Env, *vm.VM) {
	t.Helper()
	v, err := vm.New(vm.Options{HeapSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	th, err := v.AttachThread("main")
	if err != nil {
		t.Fatal(err)
	}
	return jni.NewEnv(th, jni.DirectChecker{}, false), v
}

func TestAsyncFaultsCoalesce(t *testing.T) {
	env, _ := newEnv(t, "mte-async")
	arr, _ := env.NewIntArray(8)
	fault, err := env.CallNative("multi", jni.Regular, func(e *jni.Env) error {
		p, err := e.GetPrimitiveArrayCritical(arr)
		if err != nil {
			return err
		}
		// Three OOB stores before any synchronization point.
		e.StoreInt(p.Add(64), 1)
		e.StoreInt(p.Add(128), 2)
		e.StoreInt(p.Add(192), 3)
		return e.ReleasePrimitiveArrayCritical(arr, p, jni.JNIAbort)
	})
	if err != nil {
		t.Fatal(err)
	}
	if fault == nil {
		t.Fatal("coalesced async fault missing")
	}
	// TFSR keeps only the first fault; the counter sees all three.
	if fault.Ptr.Addr() != arr.DataBegin()+64 {
		t.Fatalf("reported fault is not the first: %v", fault)
	}
	if got := env.Thread().Ctx().AsyncFaultCount(); got != 3 {
		t.Fatalf("async fault count = %d, want 3", got)
	}
}

func TestReleaseModeCommitThenAbort(t *testing.T) {
	// JNI_COMMIT keeps the guarded buffer alive through the ledger too:
	// after a commit, the same pointer must release cleanly a second time.
	env, _ := newEnv(t, "guarded")
	arr, _ := env.NewIntArray(4)
	fault, err := env.CallNative("commit", jni.Regular, func(e *jni.Env) error {
		p, err := e.GetPrimitiveArrayCritical(arr)
		if err != nil {
			return err
		}
		e.StoreInt(p, 11)
		if err := e.ReleasePrimitiveArrayCritical(arr, p, jni.JNICommit); err != nil {
			return err
		}
		if got, _ := arr.GetInt(0); got != 11 {
			t.Errorf("JNI_COMMIT did not write back: %d", got)
		}
		e.StoreInt(p, 22)
		return e.ReleasePrimitiveArrayCritical(arr, p, jni.JNIAbort)
	})
	if fault != nil || err != nil {
		t.Fatalf("fault=%v err=%v", fault, err)
	}
	if got, _ := arr.GetInt(0); got != 11 {
		t.Fatalf("JNI_ABORT after commit must discard: %d", got)
	}
	if env.OutstandingAcquisitions() != 0 {
		t.Fatal("acquisition leaked after commit+abort")
	}
}
