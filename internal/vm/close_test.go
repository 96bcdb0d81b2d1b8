package vm

import (
	"testing"

	"mte4jni/internal/mte"
)

// Close unmaps both heaps, clears every registry, and fails further use —
// the contract pooled session retirement depends on.
func TestVMClose(t *testing.T) {
	v, err := New(Options{MTE: true, CheckMode: mte.TCFSync, HeapSize: 1 << 20, NativeHeapSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	th, err := v.AttachThread("worker")
	if err != nil {
		t.Fatal(err)
	}
	arr, err := v.NewIntArray(16)
	if err != nil {
		t.Fatal(err)
	}
	th.AddLocalRef(arr)
	v.AddGlobalRef(arr)

	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if !v.Closed() {
		t.Fatal("Closed() false after Close")
	}
	if v.LiveObjects() != 0 {
		t.Fatalf("object registry survived Close: %d live", v.LiveObjects())
	}
	if got := len(v.Threads()); got != 0 {
		t.Fatalf("%d threads survived Close", got)
	}
	if len(th.LocalRefs()) != 0 {
		t.Fatal("thread local refs survived Close")
	}
	if !v.JavaHeap.Closed() || !v.NativeHeap.Closed() {
		t.Fatal("a heap survived Close")
	}
	if _, ok := v.Space.Resolve(arr.Addr()); ok {
		t.Fatal("Java heap mapping still resolvable after Close")
	}
	if _, err := v.NewIntArray(4); err == nil {
		t.Fatal("allocation succeeded on closed VM")
	}
	if _, err := v.AttachThread("late"); err == nil {
		t.Fatal("AttachThread succeeded on closed VM")
	}
	// Idempotent.
	if err := v.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// A zero NativeHeapSize maps the Java heap alone; Close must cope with the
// missing native space.
func TestVMWithoutNativeSpace(t *testing.T) {
	v, err := New(Options{HeapSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if v.NativeHeap != nil {
		t.Fatal("native space mapped with NativeHeapSize 0")
	}
	if ms := v.Space.Mappings(); len(ms) != 1 || ms[0] != v.JavaHeap.Mapping() {
		t.Fatalf("mappings = %v, want only the Java heap", ms)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if !v.JavaHeap.Closed() || len(v.Space.Mappings()) != 0 {
		t.Fatal("Java heap survived Close")
	}
}
