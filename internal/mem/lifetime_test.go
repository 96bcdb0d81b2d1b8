package mem_test

import (
	"runtime"
	"testing"
	"time"

	"mte4jni/internal/mem"
	"mte4jni/internal/vm"
)

// VMs that are never closed (figure drivers, fuzzers, most tests) must not
// leak their mappings: once a VM is unreachable the finalizer on each
// mapping's backing returns the memory. The Java heap is tagged, so its
// Mapping sits in a Mapping -> tag table -> Space -> snapshot cycle; this
// test fails if the finalizer is attached anywhere on that cycle.
func TestUnclosedVMsReleaseBacking(t *testing.T) {
	const heapSize = 1 << 20
	// Let garbage from earlier tests finalize first, so it cannot shrink the
	// count while this test measures.
	base := mem.LiveBackingBytes()
	for i := 0; i < 100; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
		now := mem.LiveBackingBytes()
		if now == base {
			break
		}
		base = now
	}
	vms := make([]*vm.VM, 32)
	for i := range vms {
		v, err := vm.New(vm.Options{HeapSize: heapSize, NativeHeapSize: heapSize, MTE: true})
		if err != nil {
			t.Fatal(err)
		}
		arr, err := v.NewArray(vm.KindInt, 1024)
		if err != nil {
			t.Fatal(err)
		}
		if err := arr.SetInt(1023, 7); err != nil {
			t.Fatal(err)
		}
		if _, err := v.JavaHeap.Mapping().SetTagRange(arr.DataBegin(), arr.DataEnd(), 5); err != nil {
			t.Fatal(err)
		}
		vms[i] = v
	}
	if grew, want := mem.LiveBackingBytes()-base, int64(len(vms)*2*heapSize); grew < want {
		t.Fatalf("live backing grew by %d bytes over %d VMs, want at least %d", grew, len(vms), want)
	}
	n := len(vms)
	vms = nil
	for i := 0; i < 100 && mem.LiveBackingBytes() > base; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if live := mem.LiveBackingBytes(); live > base {
		t.Fatalf("live backing = %d bytes after dropping %d unclosed VMs, want back at %d", live, n, base)
	}
}
