// Package guardedcopy implements ART's guarded copy mechanism (paper §2.3),
// the baseline MTE4JNI is evaluated against.
//
// When native code requests the address of a heap object, the object is
// copied into a native buffer flanked by two red zones prefilled with a
// repeating canary pattern. Native code works on the copy. At release the
// red zones are verified: any canary byte that changed proves an
// out-of-bounds *write*; the copy is then written back over the original
// object.
//
// The paper's four limitations fall out of this implementation rather than
// being hard-coded:
//
//  1. out-of-bounds reads are never detected (reads don't change canaries);
//  2. writes that jump past both red zones are missed;
//  3. the copy + synchronization cost dominates the JNI interfaces
//     (Figures 5 and 6);
//  4. detection happens at the Release call, far from the faulting store
//     (Figure 4a).
package guardedcopy

import (
	"fmt"
	"hash/adler32"
	"sync"
	"sync/atomic"

	"mte4jni/internal/jni"
	"mte4jni/internal/mte"
	"mte4jni/internal/vm"
)

// RedZoneSize is the length in bytes of each red zone. ART uses a canary
// string pattern around the copy; 32 bytes per side keeps two granules of
// slack like the debug builds do.
const RedZoneSize = 32

// canaryPattern is the repeating fill, byte-for-byte the string ART uses.
const canaryPattern = "JNI BUFFER RED ZONE"

// Violation reports a corrupted red zone discovered at release time. It is
// the guarded-copy counterpart of an MTE fault record: note it can only
// ever describe a write, and only with release-site context.
type Violation struct {
	// Object describes the released object.
	Object string
	// Iface is the Release interface that discovered the corruption.
	Iface string
	// Offset is the byte offset of the first corrupted canary byte relative
	// to the start of the payload; negative offsets are underflows.
	Offset int
	// Expected and Got are the canary byte values at Offset.
	Expected, Got byte
	// Backtrace is the releasing thread's stack — the abort site, not the
	// faulting store (Figure 4a).
	Backtrace []string
	// Thread is the name of the releasing thread.
	Thread string
}

// Error implements the error interface, phrased like ART's abort message.
func (v *Violation) Error() string {
	return fmt.Sprintf("JNI: failed in %s: use of released buffer? memory corruption at offset %d of %s (expected 0x%02x, got 0x%02x); aborting",
		v.Iface, v.Offset, v.Object, v.Expected, v.Got)
}

// Stats counts checker activity for the benchmark harness.
type Stats struct {
	// Copies counts acquire-time copies; BytesCopied sums payload bytes
	// moved in both directions.
	Copies, BytesCopied int64
	// Violations counts corrupted red zones found at release.
	Violations int64
	// ModifiedReleases counts releases whose payload checksum changed —
	// the signal ART uses for its modified-buffer diagnostics.
	ModifiedReleases int64
}

// Checker is the guarded-copy protection scheme. One Checker serves all
// threads of a VM; its ledger lock models the synchronization CheckJNI
// imposes on every guarded handout.
type Checker struct {
	vm *vm.VM

	mu   sync.Mutex
	recs map[mte.Ptr]*record

	copies           atomic.Int64
	bytesCopied      atomic.Int64
	violations       atomic.Int64
	modifiedReleases atomic.Int64
}

// record tracks one outstanding guarded buffer.
type record struct {
	obj     *vm.Object
	bufAddr mte.Addr // base of the native allocation (first red zone)
	size    int      // payload size
	// sum is the Adler-32 checksum of the payload at acquire time. ART's
	// GuardedCopy records the same checksum and re-computes it at release
	// to tell whether native code modified the buffer (it drives the
	// "buffer modified without JNI_COMMIT" diagnostics); it is also a large
	// part of why the mechanism costs what it costs.
	sum uint32
}

// New creates a guarded-copy checker for v. Its buffers come from
// v.NativeHeap, so v needs a native allocation space
// (vm.Options.NativeHeapSize > 0); without one every Acquire fails.
func New(v *vm.VM) *Checker {
	return &Checker{vm: v, recs: make(map[mte.Ptr]*record)}
}

// Name implements jni.Checker.
func (c *Checker) Name() string { return "guarded-copy" }

// fillCanary writes the repeating canary pattern over dst.
func fillCanary(dst []byte) {
	for i := range dst {
		dst[i] = canaryPattern[i%len(canaryPattern)]
	}
}

// Acquire implements jni.Checker: allocate red zone + copy + red zone in
// the native heap, fill, copy the payload, and hand out a pointer to the
// copy.
func (c *Checker) Acquire(t *vm.Thread, obj *vm.Object, begin, end mte.Addr) (mte.Ptr, error) {
	if c.vm.NativeHeap == nil {
		return 0, fmt.Errorf("guardedcopy: VM has no native allocation space (vm.Options.NativeHeapSize is 0)")
	}
	size := int(end - begin)
	bufAddr, err := c.vm.NativeHeap.Alloc(uint64(2*RedZoneSize + size))
	if err != nil {
		return 0, fmt.Errorf("guardedcopy: allocating guarded buffer: %w", err)
	}
	buf, err := c.vm.NativeHeap.Mapping().Bytes(bufAddr, 2*RedZoneSize+size)
	if err != nil {
		return 0, err
	}
	fillCanary(buf[:RedZoneSize])
	fillCanary(buf[RedZoneSize+size:])

	// Copy the original payload into the middle of the buffer.
	src, err := c.vm.JavaHeap.Mapping().Bytes(begin, size)
	if err != nil {
		return 0, fmt.Errorf("guardedcopy: reading original payload: %w", err)
	}
	copy(buf[RedZoneSize:RedZoneSize+size], src)

	p := mte.MakePtr(bufAddr+RedZoneSize, 0)
	c.mu.Lock()
	c.recs[p] = &record{obj: obj, bufAddr: bufAddr, size: size, sum: adler32.Checksum(src)}
	c.mu.Unlock()

	c.copies.Add(1)
	c.bytesCopied.Add(int64(size))
	return p, nil
}

// verifyRedZone scans zone for the first corrupted byte; base is the
// payload-relative offset of zone[0].
func verifyRedZone(zone []byte, base int) (int, byte, byte, bool) {
	for i := range zone {
		want := canaryPattern[i%len(canaryPattern)]
		if zone[i] != want {
			return base + i, want, zone[i], false
		}
	}
	return 0, 0, 0, true
}

// Release implements jni.Checker: verify both red zones, copy the payload
// back over the original object (unless JNI_ABORT), and free the buffer.
// A corrupted canary is reported as *Violation — detected here, at release,
// which is the locality limitation Figure 4a shows.
func (c *Checker) Release(t *vm.Thread, obj *vm.Object, p mte.Ptr, begin, end mte.Addr, mode jni.ReleaseMode) error {
	c.mu.Lock()
	rec, ok := c.recs[p]
	if ok {
		delete(c.recs, p)
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("guardedcopy: release of unknown pointer %v", p)
	}

	buf, err := c.vm.NativeHeap.Mapping().Bytes(rec.bufAddr, 2*RedZoneSize+rec.size)
	if err != nil {
		return err
	}

	var violation *Violation
	if off, want, got, ok := verifyRedZone(buf[:RedZoneSize], -RedZoneSize); !ok {
		violation = c.newViolation(t, obj, off, want, got)
	} else if off, want, got, ok := verifyRedZone(buf[RedZoneSize+rec.size:], rec.size); !ok {
		violation = c.newViolation(t, obj, off, want, got)
	}

	// Re-checksum the payload, as ART does, to learn whether native code
	// modified the copy.
	if adler32.Checksum(buf[RedZoneSize:RedZoneSize+rec.size]) != rec.sum {
		c.modifiedReleases.Add(1)
	}

	// Write the (possibly modified) copy back over the original, as the
	// real mechanism does when the canaries check out; on JNI_ABORT changes
	// are discarded.
	if violation == nil && mode != jni.JNIAbort {
		dst, err := c.vm.JavaHeap.Mapping().Bytes(begin, rec.size)
		if err != nil {
			return err
		}
		copy(dst, buf[RedZoneSize:RedZoneSize+rec.size])
		c.bytesCopied.Add(int64(rec.size))
	}

	if mode != jni.JNICommit {
		if err := c.vm.NativeHeap.Free(rec.bufAddr); err != nil {
			return err
		}
	} else {
		// JNI_COMMIT keeps the buffer alive; reinstate the ledger entry.
		c.mu.Lock()
		c.recs[p] = rec
		c.mu.Unlock()
	}

	if violation != nil {
		c.violations.Add(1)
		return violation
	}
	return nil
}

// newViolation builds the abort-site report.
func (c *Checker) newViolation(t *vm.Thread, obj *vm.Object, off int, want, got byte) *Violation {
	bt := append([]string{
		"abort+180 (libc.so)",
		"art::Runtime::Abort(char const*)+1536 (libart.so)",
		"art::(anonymous namespace)::GuardedCopy::Check+88 (libart.so)",
	}, t.Ctx().Backtrace()...)
	return &Violation{
		Object:    obj.String(),
		Iface:     "Release (guarded copy check)",
		Offset:    off,
		Expected:  want,
		Got:       got,
		Backtrace: bt,
		Thread:    t.Ctx().Name(),
	}
}

// Outstanding reports how many guarded buffers have not been released.
func (c *Checker) Outstanding() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.recs)
}

// Stats returns a snapshot of the activity counters.
func (c *Checker) Stats() Stats {
	return Stats{
		Copies:           c.copies.Load(),
		BytesCopied:      c.bytesCopied.Load(),
		Violations:       c.violations.Load(),
		ModifiedReleases: c.modifiedReleases.Load(),
	}
}

// CanaryAt returns the canary byte expected at a given red-zone index, for
// tests that corrupt zones surgically.
func CanaryAt(i int) byte { return canaryPattern[i%len(canaryPattern)] }

// verify interface compliance at compile time.
var _ jni.Checker = (*Checker)(nil)
