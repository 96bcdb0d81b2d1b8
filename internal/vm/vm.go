// Package vm implements the miniature ART-like managed runtime the
// reproduction runs on: a Java heap of objects/arrays/strings in simulated
// memory, threads with Runnable/Native state transitions, and a garbage
// collector — including the concurrent scan that makes the paper's
// GC-vs-tagged-memory challenge (§2.4, §3.3) real rather than hypothetical.
package vm

import (
	"fmt"
	"math/rand"
	"sync"
	"unicode/utf16"

	"mte4jni/internal/heap"
	"mte4jni/internal/mem"
	"mte4jni/internal/mte"
)

// Options configures a VM instance.
type Options struct {
	// HeapSize is the Java heap capacity (default heap.DefaultSize).
	HeapSize uint64
	// NativeHeapSize is the capacity of the untagged native allocation
	// space that guarded copy carves its red-zoned buffers from. Zero maps
	// no native space: NativeHeap stays nil and the VM's simulated memory
	// is its Java heap alone (HeapSize, page-rounded). A VM with a native
	// space maps HeapSize + NativeHeapSize.
	NativeHeapSize uint64
	// Alignment overrides the Java heap allocation alignment. Zero selects
	// the paper's values: 16 when MTE is on (§4.1), 8 otherwise (stock ART).
	Alignment uint64
	// MTE maps the Java heap with PROT_MTE and gives threads the chosen
	// CheckMode. When false the runtime behaves like stock ART.
	MTE bool
	// CheckMode is the tag-check-fault mode for threads (sync or async).
	// Ignored unless MTE is set.
	CheckMode mte.CheckMode
	// ProcessLevelMTE, when true, models the naive prctl-only design the
	// paper rejects in §3.3: every thread — including GC threads — runs
	// with checking enabled all the time. The default (false) is the
	// paper's thread-level control, where checking is enabled only inside
	// native code by the trampolines.
	ProcessLevelMTE bool
	// Seed seeds the tag RNG; reproductions default to a fixed seed so runs
	// are repeatable. Use distinct seeds to model IRG entropy.
	Seed int64
}

// VM is one simulated Android Runtime instance.
type VM struct {
	opts Options

	// Space is the simulated process address space.
	Space *mem.Space
	// JavaHeap is the managed heap (PROT_MTE when Options.MTE).
	JavaHeap *heap.Heap
	// NativeHeap is the untagged allocation space used for guarded-copy
	// buffers, standing in for native malloc. Nil when
	// Options.NativeHeapSize is zero.
	NativeHeap *heap.Heap

	classes map[uint32]*Class
	byName  map[string]*Class

	mu      sync.Mutex
	objects map[mte.Addr]*Object
	threads map[string]*Thread
	globals map[*Object]int // global reference counts (GC roots)
	nextTID int
	closed  bool

	rngMu sync.Mutex
	rng   *rand.Rand

	gc gcState
}

// New creates and initializes a VM.
func New(opts Options) (*VM, error) {
	if opts.HeapSize == 0 {
		opts.HeapSize = heap.DefaultSize
	}
	if opts.Alignment == 0 {
		if opts.MTE {
			opts.Alignment = 16
		} else {
			opts.Alignment = 8
		}
	}
	if !opts.MTE {
		opts.CheckMode = mte.TCFNone
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}

	space := mem.NewSpace()
	jh, err := heap.New(space, heap.Config{
		Name:      "main space (region space)",
		Size:      opts.HeapSize,
		Alignment: opts.Alignment,
		MTE:       opts.MTE,
	})
	if err != nil {
		return nil, fmt.Errorf("vm: creating Java heap: %w", err)
	}
	var nh *heap.Heap
	if opts.NativeHeapSize > 0 {
		nh, err = heap.New(space, heap.Config{
			Name:      "native alloc space",
			Size:      opts.NativeHeapSize,
			Alignment: 16,
			MTE:       false,
		})
		if err != nil {
			return nil, fmt.Errorf("vm: creating native heap: %w", err)
		}
	}

	v := &VM{
		opts:       opts,
		Space:      space,
		JavaHeap:   jh,
		NativeHeap: nh,
		classes:    make(map[uint32]*Class),
		byName:     make(map[string]*Class),
		objects:    make(map[mte.Addr]*Object),
		threads:    make(map[string]*Thread),
		globals:    make(map[*Object]int),
		rng:        rand.New(rand.NewSource(opts.Seed)),
	}
	v.registerBuiltinClasses()
	return v, nil
}

// Close tears the VM down: it detaches every thread, drops the object,
// global-reference and class registries, and closes its heaps — which
// unmaps their spaces and releases TLAB/free-list state — so a retained *VM
// (a pooled session slot, a test fixture) cannot keep the simulated memory
// alive. After Close every allocation and heap access fails; Close is
// idempotent. Like heap.Close it requires quiescence: the caller must hold
// the only active use of the VM (a pool closes sessions only while they are
// exclusively leased or idle).
func (v *VM) Close() error {
	v.mu.Lock()
	if v.closed {
		v.mu.Unlock()
		return nil
	}
	v.closed = true
	v.objects = make(map[mte.Addr]*Object)
	v.globals = make(map[*Object]int)
	threads := make([]*Thread, 0, len(v.threads))
	for _, t := range v.threads {
		threads = append(threads, t)
	}
	v.threads = make(map[string]*Thread)
	v.mu.Unlock()

	// Clear thread-local state outside v.mu (DetachThread's lock order).
	for _, t := range threads {
		t.localMu.Lock()
		t.locals = make(map[*Object]int)
		t.localMu.Unlock()
	}

	if err := v.JavaHeap.Close(); err != nil {
		return err
	}
	if v.NativeHeap == nil {
		return nil
	}
	return v.NativeHeap.Close()
}

// Closed reports whether Close has run.
func (v *VM) Closed() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.closed
}

// Options returns the options the VM was built with.
func (v *VM) Options() Options { return v.opts }

// MTEEnabled reports whether the Java heap is tagged.
func (v *VM) MTEEnabled() bool { return v.opts.MTE }

// CheckMode returns the process TCF mode threads are created with.
func (v *VM) CheckMode() mte.CheckMode { return v.opts.CheckMode }

func (v *VM) registerBuiltinClasses() {
	id := uint32(1)
	add := func(c *Class) *Class {
		c.ID = id
		id++
		v.classes[c.ID] = c
		v.byName[c.Name] = c
		return c
	}
	add(&Class{Name: "java.lang.Object"})
	for _, k := range Kinds {
		add(&Class{Name: k.String() + "[]", Elem: k, Array: true})
	}
	add(&Class{Name: "java.lang.String", Elem: KindChar, String: true})
}

// ArrayClass returns the class of k[] arrays.
func (v *VM) ArrayClass(k Kind) *Class { return v.byName[k.String()+"[]"] }

// StringClass returns java.lang.String.
func (v *VM) StringClass() *Class { return v.byName["java.lang.String"] }

// ClassByID resolves a header class id, for heap walkers.
func (v *VM) ClassByID(id uint32) (*Class, bool) {
	c, ok := v.classes[id]
	return c, ok
}

// RandomTag draws a random allocation tag honoring mask, serializing access
// to the shared RNG. It is the VM's IRG instruction.
func (v *VM) RandomTag(mask mte.ExcludeMask) mte.Tag {
	v.rngMu.Lock()
	defer v.rngMu.Unlock()
	return mte.IRG(v.rng, mask)
}

// ReseedTagRNG replaces the tag RNG with one seeded from seed — the other
// half of the tag-reseed defense. After a reseed every refs-0→1 acquisition
// in the protector draws from the new stream, so tag values an attacker
// learned by surviving probes under the old stream carry no information
// about future allocations.
func (v *VM) ReseedTagRNG(seed int64) {
	v.rngMu.Lock()
	defer v.rngMu.Unlock()
	v.rng = rand.New(rand.NewSource(seed))
}

// ResetHeapTags repaints the managed heap's tag storage back to zero (a
// no-op for non-MTE VMs, whose heap carries no tags). Combined with
// ReseedTagRNG this makes a recycled session's tag state indistinguishable
// from a fresh VM's: stale learned tags fault again, and nothing about the
// old RNG stream leaks into the new one. Caller must own the VM exclusively
// with no live objects — the pool's post-GC recycle point.
func (v *VM) ResetHeapTags() {
	if v.opts.MTE {
		v.JavaHeap.ResetTags()
	}
}

// allocObject carves an object with the given class and element count out of
// the Java heap and registers it.
func (v *VM) allocObject(class *Class, length int) (*Object, error) {
	if length < 0 {
		return nil, fmt.Errorf("vm: NegativeArraySizeException: %d", length)
	}
	size := uint64(HeaderSize + length*class.Elem.Size())
	if !class.Array && !class.String {
		size = HeaderSize
	}
	addr, err := v.JavaHeap.Alloc(size)
	if err != nil {
		return nil, err
	}
	o := &Object{vm: v, class: class, addr: addr, length: length}
	if err := o.writeHeader(); err != nil {
		return nil, err
	}
	v.mu.Lock()
	v.objects[addr] = o
	v.mu.Unlock()
	return o, nil
}

// NewArray allocates a primitive array of the given kind and length.
func (v *VM) NewArray(k Kind, length int) (*Object, error) {
	return v.allocObject(v.ArrayClass(k), length)
}

// NewIntArray allocates an int[] — the array type every experiment in the
// paper uses.
func (v *VM) NewIntArray(length int) (*Object, error) {
	return v.NewArray(KindInt, length)
}

// NewString allocates a java.lang.String with the UTF-16 encoding of s.
func (v *VM) NewString(s string) (*Object, error) {
	units := utf16.Encode([]rune(s))
	o, err := v.allocObject(v.StringClass(), len(units))
	if err != nil {
		return nil, err
	}
	for i, u := range units {
		if err := o.SetElem(i, uint64(u)); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// GoString decodes a java.lang.String object back into a Go string.
func (v *VM) GoString(o *Object) (string, error) {
	if !o.class.String {
		return "", fmt.Errorf("vm: GoString on non-string %s", o)
	}
	units := make([]uint16, o.Len())
	for i := range units {
		bits, err := o.GetElem(i)
		if err != nil {
			return "", err
		}
		units[i] = uint16(bits)
	}
	return string(utf16.Decode(units)), nil
}

// FreeObject unregisters o and returns its heap block. It is for
// runtime-internal temporaries (e.g. the Modified-UTF-8 buffers JNI creates
// for GetStringUTFChars); application objects are reclaimed by the GC.
func (v *VM) FreeObject(o *Object) error {
	if o.Pinned() {
		return fmt.Errorf("vm: FreeObject on pinned %s", o)
	}
	v.mu.Lock()
	delete(v.objects, o.addr)
	v.mu.Unlock()
	return v.JavaHeap.Free(o.addr)
}

// ObjectAt resolves a heap address to its Object handle.
func (v *VM) ObjectAt(addr mte.Addr) (*Object, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	o, ok := v.objects[addr]
	return o, ok
}

// LiveObjects returns the number of registered heap objects.
func (v *VM) LiveObjects() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.objects)
}

// AddGlobalRef registers o as a GC root, like JNI NewGlobalRef.
func (v *VM) AddGlobalRef(o *Object) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.globals[o]++
}

// DeleteGlobalRef drops a global root.
func (v *VM) DeleteGlobalRef(o *Object) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.globals[o] <= 1 {
		delete(v.globals, o)
	} else {
		v.globals[o]--
	}
}
