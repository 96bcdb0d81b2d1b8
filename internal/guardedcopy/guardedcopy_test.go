package guardedcopy

import (
	"errors"
	"sync"
	"testing"

	"mte4jni/internal/jni"
	"mte4jni/internal/vm"
)

func setup(t *testing.T) (*Checker, *vm.Thread, *vm.VM) {
	t.Helper()
	v, err := vm.New(vm.Options{HeapSize: 8 << 20, NativeHeapSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	th, err := v.AttachThread("native-0")
	if err != nil {
		t.Fatal(err)
	}
	return New(v), th, v
}

func TestAcquireCopiesAndReleaseWritesBack(t *testing.T) {
	c, th, v := setup(t)
	arr, _ := v.NewIntArray(16)
	arr.SetInt(7, 1234)

	p, err := c.Acquire(th, arr, arr.DataBegin(), arr.DataEnd())
	if err != nil {
		t.Fatal(err)
	}
	if p.Addr() == arr.DataBegin() {
		t.Fatal("guarded copy returned the original address")
	}
	if c.Outstanding() != 1 {
		t.Fatalf("outstanding = %d", c.Outstanding())
	}

	buf, err := v.NativeHeap.Mapping().Bytes(p.Addr(), 64)
	if err != nil {
		t.Fatal(err)
	}
	if buf[28] != 0xD2 { // 1234 = 0x4D2 little-endian at element 7
		t.Fatalf("copy content wrong: %x", buf[28])
	}
	buf[0] = 9 // modify through the copy
	if err := c.Release(th, arr, p, arr.DataBegin(), arr.DataEnd(), jni.ReleaseDefault); err != nil {
		t.Fatal(err)
	}
	if got, _ := arr.GetInt(0); got != 9 {
		t.Fatalf("write-back failed: %d", got)
	}
	if c.Outstanding() != 0 || v.NativeHeap.Live() != 0 {
		t.Fatal("buffer leaked")
	}
	st := c.Stats()
	if st.Copies != 1 || st.BytesCopied != 128 || st.Violations != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOverflowDetectedWithOffset(t *testing.T) {
	c, th, v := setup(t)
	arr, _ := v.NewIntArray(18)
	p, _ := c.Acquire(th, arr, arr.DataBegin(), arr.DataEnd())

	// Corrupt 4 bytes just past the payload (index 18 and 21).
	zone, _ := v.NativeHeap.Mapping().Bytes(p.Addr()+72, RedZoneSize)
	zone[12] ^= 0xFF // byte offset 84 relative to payload start

	err := c.Release(th, arr, p, arr.DataBegin(), arr.DataEnd(), jni.ReleaseDefault)
	var viol *Violation
	if !errors.As(err, &viol) {
		t.Fatalf("expected violation, got %v", err)
	}
	if viol.Offset != 84 {
		t.Fatalf("offset = %d, want 84", viol.Offset)
	}
	if viol.Expected == viol.Got {
		t.Fatal("expected/got bytes equal")
	}
	if viol.Thread != "native-0" {
		t.Fatalf("thread = %q", viol.Thread)
	}
	if c.Stats().Violations != 1 {
		t.Fatal("violation not counted")
	}
	// Corrupted releases must not write back over the original.
	if got, _ := arr.GetInt(0); got != 0 {
		t.Fatalf("corrupted buffer written back: %d", got)
	}
}

func TestUnderflowDetected(t *testing.T) {
	c, th, v := setup(t)
	arr, _ := v.NewIntArray(4)
	p, _ := c.Acquire(th, arr, arr.DataBegin(), arr.DataEnd())
	zone, _ := v.NativeHeap.Mapping().Bytes(p.Addr()-RedZoneSize, RedZoneSize)
	zone[RedZoneSize-1] = 0
	err := c.Release(th, arr, p, arr.DataBegin(), arr.DataEnd(), jni.ReleaseDefault)
	var viol *Violation
	if !errors.As(err, &viol) {
		t.Fatalf("expected violation, got %v", err)
	}
	if viol.Offset != -1 {
		t.Fatalf("underflow offset = %d, want -1", viol.Offset)
	}
}

func TestFarOverflowMissed(t *testing.T) {
	// Limitation 2 (§2.3): a write past both red zones goes unnoticed.
	c, th, v := setup(t)
	arr, _ := v.NewIntArray(4)
	p, _ := c.Acquire(th, arr, arr.DataBegin(), arr.DataEnd())
	// Write 100 bytes past the payload: beyond the 32-byte red zone.
	far, err := v.NativeHeap.Mapping().Bytes(p.Addr()+16+100, 4)
	if err == nil {
		far[0] = 0xFF
	}
	if err := c.Release(th, arr, p, arr.DataBegin(), arr.DataEnd(), jni.ReleaseDefault); err != nil {
		t.Fatalf("far overflow was detected, but guarded copy cannot do that: %v", err)
	}
}

func TestJNICommitKeepsBuffer(t *testing.T) {
	c, th, v := setup(t)
	arr, _ := v.NewIntArray(4)
	p, _ := c.Acquire(th, arr, arr.DataBegin(), arr.DataEnd())
	buf, _ := v.NativeHeap.Mapping().Bytes(p.Addr(), 4)
	buf[0] = 42
	if err := c.Release(th, arr, p, arr.DataBegin(), arr.DataEnd(), jni.JNICommit); err != nil {
		t.Fatal(err)
	}
	if got, _ := arr.GetInt(0); got != 42 {
		t.Fatal("JNI_COMMIT must write back")
	}
	if c.Outstanding() != 1 {
		t.Fatal("JNI_COMMIT must keep the buffer")
	}
	buf[0] = 43
	if err := c.Release(th, arr, p, arr.DataBegin(), arr.DataEnd(), jni.ReleaseDefault); err != nil {
		t.Fatal(err)
	}
	if got, _ := arr.GetInt(0); got != 43 {
		t.Fatal("final release must write back again")
	}
	if c.Outstanding() != 0 {
		t.Fatal("final release must free")
	}
}

func TestReleaseUnknownPointer(t *testing.T) {
	c, th, v := setup(t)
	arr, _ := v.NewIntArray(4)
	if err := c.Release(th, arr, 0xDEAD, arr.DataBegin(), arr.DataEnd(), jni.ReleaseDefault); err == nil {
		t.Fatal("release of unknown pointer accepted")
	}
}

func TestConcurrentAcquireReleaseSameArray(t *testing.T) {
	c, _, v := setup(t)
	arr, _ := v.NewIntArray(256)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th, err := v.AttachThread("")
			if err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < 100; j++ {
				p, err := c.Acquire(th, arr, arr.DataBegin(), arr.DataEnd())
				if err != nil {
					t.Error(err)
					return
				}
				if err := c.Release(th, arr, p, arr.DataBegin(), arr.DataEnd(), jni.JNIAbort); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if c.Outstanding() != 0 || v.NativeHeap.Live() != 0 {
		t.Fatal("buffers leaked under concurrency")
	}
	if c.Stats().Copies != 1600 {
		t.Fatalf("copies = %d", c.Stats().Copies)
	}
}

func TestCanaryAt(t *testing.T) {
	if CanaryAt(0) != 'J' || CanaryAt(19) != 'J' || CanaryAt(1) != 'N' {
		t.Fatal("canary pattern indexing wrong")
	}
}

func TestAcquireWithoutNativeSpaceErrors(t *testing.T) {
	v, err := vm.New(vm.Options{HeapSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	th, err := v.AttachThread("native-0")
	if err != nil {
		t.Fatal(err)
	}
	arr, _ := v.NewIntArray(4)
	if _, err := New(v).Acquire(th, arr, arr.DataBegin(), arr.DataEnd()); err == nil {
		t.Fatal("Acquire succeeded on a VM without a native space")
	}
}
