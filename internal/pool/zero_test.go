package pool

import (
	"context"
	"testing"

	"mte4jni"
	"mte4jni/internal/cpu"
	"mte4jni/internal/mte"
	"mte4jni/internal/vm"
)

// A session that replaces a quarantined one must start from an all-zero Java
// heap: nothing the crashed tenant wrote may survive into the next tenant's
// memory, wherever the new mapping happens to land.
func TestReplacementSessionReadsZero(t *testing.T) {
	p := testPool(t, Config{MaxSessions: 1})
	ctx := context.Background()
	pattern := make([]byte, 64<<10)
	for i := range pattern {
		pattern[i] = 0xA5 ^ byte(i)
	}

	s, err := p.Acquire(ctx, mte4jni.MTESync)
	if err != nil {
		t.Fatal(err)
	}
	crashed := s.Name()
	v := s.Runtime().VM()
	raw := cpu.New("zero-test", mte.TCFNone) // unchecked view of one VM's heap
	forEachChunk(v, len(pattern), func(ptr mte.Ptr, n int) {
		if f := v.Space.CopyIn(raw, ptr, pattern[:n]); f != nil {
			t.Fatalf("writing the pattern: %v", f)
		}
	})
	if res := s.RunProgram(nil, OOBProgram()); !res.Faulted() {
		t.Fatalf("OOB program did not fault under MTE+Sync (ret=%d err=%v)", res.Ret, res.Err)
	}
	p.Release(s)

	s2, err := p.Acquire(ctx, mte4jni.MTESync)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release(s2)
	if s2.Name() == crashed {
		t.Fatal("quarantined session was reused")
	}
	v2 := s2.Runtime().VM()
	raw = cpu.New("zero-test-2", mte.TCFNone) // a TLB never spans two spaces
	got := make([]byte, len(pattern))
	forEachChunk(v2, len(got), func(ptr mte.Ptr, n int) {
		if f := v2.Space.CopyOut(raw, ptr, got[:n]); f != nil {
			t.Fatalf("reading the replacement heap: %v", f)
		}
		for i, b := range got[:n] {
			if b != 0 {
				t.Fatalf("replacement heap byte at %v = %#x, want 0", ptr.Addr()+mte.Addr(i), b)
			}
		}
	})
}

// forEachChunk calls fn over the whole Java heap of v in chunks of at most
// size bytes.
func forEachChunk(v *vm.VM, size int, fn func(ptr mte.Ptr, n int)) {
	m := v.JavaHeap.Mapping()
	for a := m.Base(); a < m.End(); a += mte.Addr(size) {
		fn(mte.MakePtr(a, 0), int(min(uint64(size), uint64(m.End()-a))))
	}
}
