// Package mte4jni is a full-system reproduction, in pure Go, of
// "MTE4JNI: A Memory Tagging Method to Protect Java Heap Memory from
// Illicit Native Code Access" (Chen, Ma, Xue, Li — CGO '25).
//
// The package is the public facade over a simulated stack that mirrors the
// paper's testbed: a software model of ARM MTE (internal/mte, internal/mem,
// internal/cpu), an ART-like managed runtime with heap, threads and GC
// (internal/heap, internal/vm), the raw-pointer JNI surface of the paper's
// Table 1 with TCO-flipping trampolines (internal/jni), the guarded-copy
// baseline (internal/guardedcopy), and the MTE4JNI protector itself —
// reference-counted tag allocation/release under two-tier locking
// (internal/core).
//
// Typical use:
//
//	rt, err := mte4jni.New(mte4jni.Config{Scheme: mte4jni.MTESync})
//	env, err := rt.AttachEnv("main")
//	arr, err := env.NewIntArray(18)
//	fault, err := env.CallNative("test_ofb", mte4jni.Regular, func(e *mte4jni.Env) error {
//		p, err := e.GetPrimitiveArrayCritical(arr)
//		if err != nil { return err }
//		e.StoreInt(p.Add(21*4), 1) // out of bounds: faults under MTESync
//		return e.ReleasePrimitiveArrayCritical(arr, p, mte4jni.ReleaseDefault)
//	})
//
// The experiment drivers that regenerate every table and figure of the
// paper's evaluation live in this package too (RunEffectiveness, RunFig5,
// RunFig6, RunGeekbench, and the Run*Ablation functions); see EXPERIMENTS.md.
package mte4jni

import (
	"cmp"
	"fmt"

	"mte4jni/internal/core"
	"mte4jni/internal/guardedcopy"
	"mte4jni/internal/heap"
	"mte4jni/internal/jni"
	"mte4jni/internal/mte"
	"mte4jni/internal/vm"
)

// Scheme selects one of the four protection schemes compared in §5.
type Scheme int

const (
	// NoProtection is Android's production default: raw pointers with no
	// checking (the normalization baseline).
	NoProtection Scheme = iota
	// GuardedCopy enables ART's guarded copy (red zones + canaries).
	GuardedCopy
	// MTESync enables MTE4JNI in synchronous check mode.
	MTESync
	// MTEAsync enables MTE4JNI in asynchronous check mode.
	MTEAsync
)

// String names the scheme as in the paper's figures.
func (s Scheme) String() string {
	switch s {
	case NoProtection:
		return "No protection"
	case GuardedCopy:
		return "Guarded copy"
	case MTESync:
		return "MTE4JNI+Sync"
	case MTEAsync:
		return "MTE4JNI+Async"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// MTE reports whether the scheme uses memory tagging.
func (s Scheme) MTE() bool { return s == MTESync || s == MTEAsync }

// MarshalText implements encoding.TextMarshaler so that maps keyed by
// Scheme serialize as readable names in JSON exports.
func (s Scheme) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler, accepting the names
// produced by String.
func (s *Scheme) UnmarshalText(text []byte) error {
	for _, c := range Schemes() {
		if c.String() == string(text) {
			*s = c
			return nil
		}
	}
	return fmt.Errorf("mte4jni: unknown scheme %q", text)
}

// Schemes lists all four schemes in the paper's comparison order.
func Schemes() []Scheme { return []Scheme{NoProtection, GuardedCopy, MTESync, MTEAsync} }

// Locking selects the synchronization design inside the MTE4JNI protector.
type Locking = core.LockScheme

const (
	// TwoTierLocking is the paper's k-hash-tables + per-object-lock design.
	TwoTierLocking = core.LockTwoTier
	// GlobalLocking is the naive single-lock baseline of §5.3.2.
	GlobalLocking = core.LockGlobal
)

// Config configures a Runtime. The zero value is a usable no-protection
// runtime with the paper's defaults.
type Config struct {
	// Scheme selects the protection scheme.
	Scheme Scheme
	// Locking selects two-tier (default) or global locking for MTE schemes.
	Locking Locking
	// HashTables is the k of the two-tier design; 0 means the paper's 16.
	HashTables int
	// HeapSize is the Java heap capacity; 0 means 64 MiB. A runtime maps
	// HeapSize bytes of simulated memory (page-rounded), 2×HeapSize under
	// GuardedCopy, whose native allocation space for copies is sized to
	// the heap.
	HeapSize uint64
	// HeapAlignment overrides the allocation alignment; 0 selects 16 for
	// MTE schemes and 8 otherwise, the paper's §4.1 settings. Setting 8
	// together with an MTE scheme reproduces the granule-sharing hazard.
	HeapAlignment uint64
	// ProcessLevelMTE switches to the naive prctl-style process-wide
	// checking the paper rejects (§3.3); GC threads then fault on tagged
	// memory. Only meaningful for MTE schemes.
	ProcessLevelMTE bool
	// PruneTagEntries erases zero-reference hash-table entries instead of
	// retaining them as Algorithm 2 does; bounds memory for long-running
	// processes at a per-handout cost.
	PruneTagEntries bool
	// PoisonOnRelease retags released memory with the reserved poison tag
	// (mte.PoisonTag) instead of zero, making use-after-release faults
	// self-identifying in crash reports. Extension beyond the paper.
	PoisonOnRelease bool
	// TagNeighborExclusion excludes the tags of adjacent granules when
	// generating an object's tag, eliminating the 1-in-15 adjacent-object
	// collision chance (DESIGN.md Extra C). Extension beyond the paper.
	TagNeighborExclusion bool
	// DisableCheckJNI turns off the CheckJNI validation layer (pointer
	// matching on release); benchmarks that want the leanest interface can
	// set it.
	DisableCheckJNI bool
	// Seed seeds the tag RNG; 0 means a fixed default for reproducibility.
	Seed int64
}

// Re-exported aliases so that programs built on the facade don't need to
// reach into internal packages.
type (
	// Env is the per-thread JNI environment.
	Env = jni.Env
	// Object is a Java heap object handle.
	Object = vm.Object
	// Ptr is a raw (possibly tagged) native pointer.
	Ptr = mte.Ptr
	// Fault is a detected MTE memory fault.
	Fault = mte.Fault
	// Violation is a guarded-copy red-zone violation.
	Violation = guardedcopy.Violation
	// NativeKind classifies native methods (regular/@FastNative/@CriticalNative).
	NativeKind = jni.NativeKind
	// ReleaseMode is the JNI release mode (0, JNI_COMMIT, JNI_ABORT).
	ReleaseMode = jni.ReleaseMode
	// Kind is a Java primitive type.
	Kind = vm.Kind
)

// Native method kinds and release modes, re-exported.
const (
	// Regular is a plain native method (state-transitioning trampoline).
	Regular = jni.Regular
	// FastNative is an @FastNative method.
	FastNative = jni.FastNative
	// CriticalNative is an @CriticalNative method.
	CriticalNative = jni.CriticalNative

	// ReleaseDefault copies back and frees.
	ReleaseDefault = jni.ReleaseDefault
	// JNICommit copies back without freeing.
	JNICommit = jni.JNICommit
	// JNIAbort frees without copying back.
	JNIAbort = jni.JNIAbort
)

// Java primitive kinds, re-exported.
const (
	KindByte   = vm.KindByte
	KindChar   = vm.KindChar
	KindShort  = vm.KindShort
	KindInt    = vm.KindInt
	KindLong   = vm.KindLong
	KindFloat  = vm.KindFloat
	KindDouble = vm.KindDouble
)

// Runtime is one simulated Android runtime configured with a protection
// scheme — the unit every experiment constructs per scheme.
type Runtime struct {
	cfg     Config
	vm      *vm.VM
	checker jni.Checker
}

// New builds a Runtime for cfg.
func New(cfg Config) (*Runtime, error) {
	opts := vm.Options{
		HeapSize:        cfg.HeapSize,
		Alignment:       cfg.HeapAlignment,
		MTE:             cfg.Scheme.MTE(),
		ProcessLevelMTE: cfg.ProcessLevelMTE,
		Seed:            cfg.Seed,
	}
	switch cfg.Scheme {
	case GuardedCopy:
		// Guarded copy is the only scheme that copies arrays out of the
		// Java heap; copies of live arrays never need more than the heap
		// itself, red zones aside. The other schemes touch the heap in
		// place and map no native space at all.
		opts.NativeHeapSize = cmp.Or(cfg.HeapSize, heap.DefaultSize)
	case MTESync:
		opts.CheckMode = mte.TCFSync
	case MTEAsync:
		opts.CheckMode = mte.TCFAsync
	}
	v, err := vm.New(opts)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{cfg: cfg, vm: v}
	switch cfg.Scheme {
	case NoProtection:
		rt.checker = jni.DirectChecker{}
	case GuardedCopy:
		rt.checker = guardedcopy.New(v)
	case MTESync, MTEAsync:
		p, err := core.New(v, core.Config{
			HashTables:       cfg.HashTables,
			Lock:             cfg.Locking,
			PruneEntries:     cfg.PruneTagEntries,
			PoisonOnRelease:  cfg.PoisonOnRelease,
			ExcludeNeighbors: cfg.TagNeighborExclusion,
		})
		if err != nil {
			return nil, err
		}
		rt.checker = p
	default:
		return nil, fmt.Errorf("mte4jni: unknown scheme %v", cfg.Scheme)
	}
	return rt, nil
}

// MustNew is New for program setup paths where a configuration error is a
// programming bug; it panics on error.
func MustNew(cfg Config) *Runtime {
	rt, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return rt
}

// Config returns the configuration in force.
func (r *Runtime) Config() Config { return r.cfg }

// Scheme returns the active protection scheme.
func (r *Runtime) Scheme() Scheme { return r.cfg.Scheme }

// VM exposes the underlying managed runtime, for tests and advanced use.
func (r *Runtime) VM() *vm.VM { return r.vm }

// AttachEnv attaches a new thread and returns its JNI environment.
func (r *Runtime) AttachEnv(name string) (*Env, error) {
	th, err := r.vm.AttachThread(name)
	if err != nil {
		return nil, err
	}
	return jni.NewEnv(th, r.checker, !r.cfg.DisableCheckJNI), nil
}

// DetachEnv detaches the environment's thread from the runtime.
func (r *Runtime) DetachEnv(env *Env) { r.vm.DetachThread(env.Thread()) }

// GC runs a stop-the-world collection on the runtime's heap.
func (r *Runtime) GC() vm.GCStats { return r.vm.GC() }

// Protector returns the MTE4JNI protector, or nil for non-MTE schemes.
func (r *Runtime) Protector() *core.Protector {
	p, _ := r.checker.(*core.Protector)
	return p
}

// GuardedChecker returns the guarded-copy checker, or nil for other
// schemes.
func (r *Runtime) GuardedChecker() *guardedcopy.Checker {
	c, _ := r.checker.(*guardedcopy.Checker)
	return c
}
