package analysis

import (
	"fmt"
	"math"

	"mte4jni/internal/interp"
	"mte4jni/internal/jni"
	"mte4jni/internal/mte"
)

// elemSize is the byte width of the int-array elements OpNewArray allocates
// (vm.Object int arrays, matching interp's array model).
const elemSize = 4

// neighbourWindow is how far beyond the granule-rounded payload an access is
// still a *deterministic* tag-check fault when the allocator runs with
// neighbour exclusion (core.Config.ExcludeNeighbors): the irg excludes the
// tags of the two granules on either side of the block, so any access within
// two granules of it is guaranteed to see a mismatching tag.
const neighbourWindow = 2 * mte.GranuleSize

// maxProvableLen bounds the array lengths (in elements) for which the
// analyzer will claim anything about allocation success. Larger requests may
// legitimately end in OutOfMemoryError, which is a managed throw, not a
// fault, so it poisons both verdict directions equally little — but it keeps
// the fault verdict honest.
const maxProvableLen = 1024

// maxProvableCode bounds the method size for the provably-faulting verdict:
// the interpreter throws StackOverflowError at 1024 operands, and on an
// acyclic path the stack depth is below the instruction count, so methods
// under this bound can never hit the limit.
const maxProvableCode = 1024

// NativeSummary is the behavioural specification of a native method, the
// analyzer's stand-in for the native's machine code. It doubles as an
// executable spec: internal/fuzz materialises a native body from it that
// performs byte accesses at exactly MinOff and MaxOff (relative to the array
// payload handed out by GetIntArrayElements), so the static verdict and the
// dynamic run describe the same behaviour.
type NativeSummary struct {
	// Kind selects the trampoline; @CriticalNative bodies run with tag
	// checking never armed.
	Kind jni.NativeKind
	// MinOff and MaxOff bound the byte offsets the native accesses relative
	// to the payload begin; both extremes are actually touched. MinOff >
	// MaxOff means the native performs no heap accesses at all.
	MinOff, MaxOff int64
	// Write marks the accesses as stores rather than loads.
	Write bool
	// UseAfterRelease makes the native release the elements first and then
	// perform the accesses through the stale pointer.
	UseAfterRelease bool
	// ForgeTag makes the native flip pointer tag bits 56-59 (without irg)
	// before accessing.
	ForgeTag bool
	// DamageOps is how many additional accesses the native issues after its
	// primary touch sequence, all at MinOff — the "keep working after the
	// violation" shape the red-team window attacks use. Under sync TCF a
	// faulting first access suppresses them, so they never change the fault
	// verdict; under deferred checking they are interfering writes inside
	// the acquire/release window.
	DamageOps int
	// ConcurrentScan marks the hold window as overlapping a concurrent GC
	// scan of the same heap (the native body runs while a collector thread
	// reads live payloads).
	ConcurrentScan bool
	// ManagedRace marks a managed-side write to the same array committing
	// while the native holds its hand-out — the lost-update shape: under a
	// copying interface the release copy-back overwrites the managed write
	// with the stale snapshot.
	ManagedRace bool
}

// Touches reports whether the summary performs any heap access.
func (s NativeSummary) Touches() bool { return s.MinOff <= s.MaxOff }

// CallSite is one analyzed OpCallNative instruction.
type CallSite struct {
	// PC is the instruction index.
	PC int
	// Name is the native method name.
	Name string
	// Ref is the reference slot the call passes (the instruction's B
	// operand); provenance chains use it to link hand-outs of the same
	// reference across call sites.
	Ref int64
	// Verdict is the per-site claim: can this call fault?
	Verdict Verdict
	// Reason explains the verdict in one clause.
	Reason string
}

// MethodResult is the outcome of analyzing one method.
type MethodResult struct {
	// Method is the analyzed method.
	Method *interp.Method
	// Diags are the findings, sorted.
	Diags []Diagnostic
	// Verdict is the whole-method claim under MTE4JNI+Sync with neighbour
	// exclusion (see package doc).
	Verdict Verdict
	// Reachable marks the instructions the fixpoint proved reachable.
	Reachable []bool
	// CallSites lists every reachable OpCallNative with its verdict.
	CallSites []CallSite
	// FaultSite is the earliest provably-faulting call site when the
	// whole-method verdict is VerdictFault (nil otherwise).
	FaultSite *CallSite
	// Provenance traces the faulting pointer from its managed allocation to
	// the dereference when FaultSite is set.
	Provenance ProvChain
	// Elision is the compiled proof-carrying elision mask: every reachable
	// heap access whose guard the analysis discharged, with per-PC proofs
	// (nil only when the method never reached the fixpoint, e.g. malformed
	// bytecode).
	Elision *Elision
	// Temporal lists the call sites the temporal effect domain classified
	// as exposed (temporal.go), in PC order.
	Temporal []TemporalFinding
}

// Annotations returns the per-pc disassembly notes for this result:
// diagnostics plus "unreachable"-free verdict notes for native call sites.
func (r *MethodResult) Annotations() map[int][]string {
	return Annotations(r.Diags)
}

// safeEnd returns the end of the tag-rounded payload for an array of length
// elems: every byte offset in [0, safeEnd) carries the array's own tag.
func safeEnd(elems int64) int64 {
	return int64(mte.Addr(uint64(elems) * elemSize).AlignUp(mte.GranuleSize))
}

// siteVerdict decides whether a call to a native with summary s, handed an
// array whose length lies in the interval length, provably faults, provably
// cannot fault, or neither.
func siteVerdict(s NativeSummary, length iv) (Verdict, string) {
	if !s.Touches() {
		return VerdictSafe, "native performs no heap accesses"
	}
	minLen := max64(0, length.Lo)
	inPayload := s.MinOff >= 0 && s.MaxOff < safeEnd(minLen)
	if s.Kind == jni.CriticalNative {
		// Checking is never armed for @CriticalNative code, so nothing it
		// does raises a tag-check fault; in-payload accesses are also
		// mapped, so they cannot fault at all. Out-of-payload accesses may
		// still run off the mapping, which we cannot rule out statically.
		if inPayload {
			return VerdictSafe, "@CriticalNative: tag checking never armed"
		}
		return VerdictUnknown, "@CriticalNative access outside the payload: unchecked, may leave the mapping"
	}
	if !s.UseAfterRelease && !s.ForgeTag && inPayload {
		return VerdictSafe, fmt.Sprintf("accesses [%d,%d] within tag-rounded payload [0,%d)",
			s.MinOff, s.MaxOff, safeEnd(minLen))
	}
	if !length.isExact() || length.Lo < 0 || length.Lo > maxProvableLen {
		return VerdictUnknown, fmt.Sprintf("array length %s not statically exact", length)
	}
	se := safeEnd(length.Lo)
	switch {
	case s.UseAfterRelease && s.MinOff >= -neighbourWindow && s.MaxOff < se+neighbourWindow:
		return VerdictFault, "use-after-release: the region's tags are retired before the access"
	case s.ForgeTag && s.MinOff >= 0 && s.MaxOff < se:
		return VerdictFault, "forged pointer tag (bits 56-59 mutated without irg)"
	case s.UseAfterRelease || s.ForgeTag:
		return VerdictUnknown, "stale or forged pointer access outside the deterministic window"
	case s.MinOff < 0 && s.MinOff >= -neighbourWindow:
		return VerdictFault, fmt.Sprintf("oob: offset %d before the payload", s.MinOff)
	case s.MaxOff >= se && s.MaxOff < se+neighbourWindow:
		return VerdictFault, fmt.Sprintf("oob: offset %d past tag-rounded payload end %d", s.MaxOff, se)
	}
	return VerdictUnknown, "accesses beyond the neighbour-exclusion window: tag coincidence possible"
}

// --- Abstract state --------------------------------------------------------

// tri is the three-valued liveness of a reference slot.
type tri uint8

const (
	triNo tri = iota
	triMaybe
	triYes
)

func joinTri(a, b tri) tri {
	if a == b {
		return a
	}
	return triMaybe
}

// refState abstracts one reference slot: whether it holds an array, the
// interval of possible lengths when it does, and the provenance of the value
// — the pc of the unique OpNewArray that produced it, stored as pc+1 so the
// zero value means "no unique allocation site" (uninitialized or merged from
// distinct sites). The state must stay comparable: joinInto relies on !=.
type refState struct {
	init    tri
	length  iv
	allocPC int
}

// absState is the abstract machine state at one program point.
type absState struct {
	stack  []iv
	locals []iv
	refs   []refState
}

func (s *absState) clone() *absState {
	return s.copyInto(&absState{})
}

// copyInto overwrites dst with s, reusing dst's slices, and returns dst.
func (s *absState) copyInto(dst *absState) *absState {
	dst.stack = append(dst.stack[:0], s.stack...)
	dst.locals = append(dst.locals[:0], s.locals...)
	dst.refs = append(dst.refs[:0], s.refs...)
	return dst
}

// joinInto merges src into dst in place. It reports whether dst changed and
// whether the merge is well-formed (equal stack depths). widen replaces the
// interval hull with the widening operator.
func joinInto(dst, src *absState, widen bool) (changed, ok bool) {
	if len(dst.stack) != len(src.stack) {
		return false, false
	}
	merge := func(old, next iv) iv {
		j := joinIv(old, next)
		if widen {
			j = widenIv(old, j)
		}
		return j
	}
	for i := range dst.stack {
		if v := merge(dst.stack[i], src.stack[i]); v != dst.stack[i] {
			dst.stack[i], changed = v, true
		}
	}
	for i := range dst.locals {
		if v := merge(dst.locals[i], src.locals[i]); v != dst.locals[i] {
			dst.locals[i], changed = v, true
		}
	}
	for i := range dst.refs {
		old := dst.refs[i]
		next := src.refs[i]
		nr := refState{init: joinTri(old.init, next.init)}
		switch {
		case old.init == triNo:
			nr.length, nr.allocPC = next.length, next.allocPC
		case next.init == triNo:
			nr.length, nr.allocPC = old.length, old.allocPC
		default:
			nr.length = merge(old.length, next.length)
			if old.allocPC == next.allocPC {
				nr.allocPC = old.allocPC
			}
		}
		if nr != old {
			dst.refs[i], changed = nr, true
		}
	}
	return changed, true
}

// --- The analyzer ----------------------------------------------------------

// terminal classifies how an instruction can end execution.
type terminal int

const (
	termNone terminal = iota
	// termThrow covers managed exceptions and interpreter aborts — paths
	// that end the run without a memory fault.
	termThrow
	// termFault is a provable MTE tag-check fault inside a native call.
	termFault
	// termReturn is a normal OpReturn.
	termReturn
)

// edge is one control-flow successor with the state flowing along it.
type edge struct {
	to int
	st *absState
}

// stepResult is the transfer function's output for one instruction.
type stepResult struct {
	succs []edge
	term  terminal
}

type analyzer struct {
	m       *interp.Method
	natives map[string]NativeSummary
	file    string

	states []*absState // fixpoint in-state per pc; nil = unreachable
	visits []int
	clash  []bool // inconsistent stack depths merged at this pc

	// reporting-phase accumulators
	diags     []Diagnostic
	sites     []CallSite
	proofs    []ElisionProof
	temporal  []TemporalFinding
	faultSite *CallSite
	faultProv ProvChain
	reporting bool
}

// widenAfter is the revisit count past which merges widen.
const widenAfter = 24

func (a *analyzer) emit(pc int, rule string, sev Severity, format string, args ...any) {
	if !a.reporting {
		return
	}
	a.diags = append(a.diags, Diagnostic{
		Rule: rule, Sev: sev, File: a.file, Method: a.m.Name, PC: pc,
		Message: fmt.Sprintf(format, args...),
	})
}

// step is the abstract transfer function for the instruction at pc with
// in-state st (which it consumes). During the reporting phase it also emits
// diagnostics and records call sites.
func (a *analyzer) step(pc int, st *absState) stepResult {
	in := a.m.Code[pc]
	res := stepResult{}
	code := a.m.Code

	push := func(v iv) { st.stack = append(st.stack, v) }
	pop := func() iv {
		v := st.stack[len(st.stack)-1]
		st.stack = st.stack[:len(st.stack)-1]
		return v
	}
	flow := func(to int) {
		if to == len(code) {
			// Running past the end is an interpreter abort ("fell off the
			// end"); jumping to len(code) is how Validate-legal bytecode
			// expresses it.
			a.emit(pc, RuleFallOff, SevError, "control flow runs past the end of the bytecode")
			res.term = termThrow
			return
		}
		// No case changes st after a flow, so the first successor can take
		// st itself; only a second successor needs its own copy.
		next := st
		if len(res.succs) > 0 {
			next = st.clone()
		}
		res.succs = append(res.succs, edge{to: to, st: next})
	}
	throw := func() { res.term = termThrow }

	if needs := interp.OperandNeeds(in.Op); len(st.stack) < needs {
		a.emit(pc, RuleStack, SevError, "operand stack underflow: %v needs %d, stack has %d",
			in.Op, needs, len(st.stack))
		throw()
		return res
	}

	// checkRef validates a reference-slot read, returning false when the
	// slot is provably null (the access throws NullPointerException).
	checkRef := func(slot int64) (refState, bool) {
		r := st.refs[slot]
		switch r.init {
		case triNo:
			a.emit(pc, RuleUninitRef, SevError,
				"use of uninitialized ref slot %d (provable NullPointerException)", slot)
			return r, false
		case triMaybe:
			a.emit(pc, RuleMaybeUninitRef, SevWarning, "ref slot %d may be uninitialized", slot)
		}
		return r, true
	}

	switch in.Op {
	case interp.OpConst:
		push(exact(in.A))
		flow(pc + 1)
	case interp.OpLoad:
		push(st.locals[in.A])
		flow(pc + 1)
	case interp.OpStore:
		st.locals[in.A] = pop()
		flow(pc + 1)
	case interp.OpAdd, interp.OpSub, interp.OpMul:
		b, x := pop(), pop()
		switch in.Op {
		case interp.OpAdd:
			push(addIv(x, b))
		case interp.OpSub:
			push(subIv(x, b))
		default:
			push(mulIv(x, b))
		}
		flow(pc + 1)
	case interp.OpDiv, interp.OpRem:
		b, x := pop(), pop()
		if b.isExact() && b.Lo == 0 {
			a.emit(pc, RuleDivZero, SevError, "division by a provably zero divisor")
			throw()
			return res
		}
		if b.contains(0) {
			a.emit(pc, RuleMaybeDivZero, SevWarning, "divisor %s may be zero", b)
		}
		if in.Op == interp.OpDiv {
			push(divIv(x, b))
		} else {
			push(remIv(x, b))
		}
		flow(pc + 1)
	case interp.OpJmp:
		flow(int(in.A))
	case interp.OpJmpIfZero:
		c := pop()
		if c.contains(0) {
			flow(int(in.A))
		}
		if !(c.isExact() && c.Lo == 0) {
			flow(pc + 1)
		}
	case interp.OpJmpIfNeg:
		c := pop()
		if c.Lo < 0 {
			flow(int(in.A))
		}
		if c.Hi >= 0 {
			flow(pc + 1)
		}
	case interp.OpNewArray:
		n := pop()
		if n.Hi < 0 {
			a.emit(pc, RuleNegSize, SevError, "provably negative array size %s", n)
			throw()
			return res
		}
		if n.Lo < 0 {
			a.emit(pc, RuleMaybeNegSize, SevWarning, "array size %s may be negative", n)
		}
		if n.Hi > maxProvableLen {
			a.emit(pc, RuleMaybeOOM, SevWarning,
				"array of %s elements may exhaust the heap", n)
		}
		st.refs[in.A] = refState{init: triYes, length: n.clampMin(0), allocPC: pc + 1}
		flow(pc + 1)
	case interp.OpArrayGet:
		idx := pop()
		r, ok := checkRef(in.A)
		if !ok {
			throw()
			return res
		}
		if a.boundsCheck(pc, idx, r.length) {
			throw()
			return res
		}
		a.elideBounds(pc, "aget", idx, r)
		push(full())
		flow(pc + 1)
	case interp.OpArrayPut:
		pop() // value
		idx := pop()
		r, ok := checkRef(in.A)
		if !ok {
			throw()
			return res
		}
		if a.boundsCheck(pc, idx, r.length) {
			throw()
			return res
		}
		a.elideBounds(pc, "aput", idx, r)
		flow(pc + 1)
	case interp.OpArrayLength:
		r, ok := checkRef(in.A)
		if !ok {
			throw()
			return res
		}
		push(r.length.clampMin(0))
		flow(pc + 1)
	case interp.OpCallNative:
		r, ok := checkRef(in.B)
		if !ok {
			throw()
			return res
		}
		name := a.m.NativeNames[in.A]
		sum, have := a.natives[name]
		site := CallSite{PC: pc, Name: name, Ref: in.B, Verdict: VerdictUnknown}
		if !have {
			site.Reason = "no behavioural summary"
			a.emit(pc, RuleNativeUnknown, SevWarning,
				"native %q has no behavioural summary; outcome unknown", name)
		} else {
			site.Verdict, site.Reason = siteVerdict(sum, r.length)
			windowClean := true
			if a.reporting {
				if f, exposed := temporalSite(pc, in.B, r, name, sum); exposed {
					a.temporal = append(a.temporal, f)
					windowClean = false
				}
			}
			if site.Verdict == VerdictSafe && a.reporting && !a.clash[pc] && r.init == triYes && windowClean {
				// The safe verdict stands on the summary's offsets and the
				// length lower bound of a definitely-allocated array — and,
				// since the temporal pass, on a clean window: an exposed
				// site keeps its guards even when it cannot fault under
				// sync, because the mask may run under a deferred checker.
				a.proofs = append(a.proofs, ElisionProof{
					PC: pc, Op: "callnative", Reason: site.Reason, Native: name,
					Touches: sum.Touches(), MinOff: sum.MinOff, MaxOff: sum.MaxOff,
					LenLo: max64(0, r.length.Lo), WindowSafe: true,
				})
			}
			if sum.Kind == jni.CriticalNative && sum.Touches() {
				a.emit(pc, RuleCriticalHeap, SevWarning,
					"@CriticalNative %q touches the Java heap with checking unarmed", name)
			}
			if site.Verdict == VerdictFault {
				a.emit(pc, RuleNativeFault, SevError, "native %s: %s", name, site.Reason)
				res.term = termFault
				if a.reporting {
					if a.faultSite == nil {
						s := site
						a.faultSite = &s
						a.faultProv = buildProvChain(pc, in.B, r, name, sum, a.sites, site.Reason)
					}
					a.sites = append(a.sites, site)
				}
				return res
			}
		}
		if a.reporting {
			a.sites = append(a.sites, site)
		}
		flow(pc + 1)
	case interp.OpReturn:
		pop()
		res.term = termReturn
	default:
		a.emit(pc, RuleMalformed, SevError, "unknown opcode %d", int(in.Op))
		throw()
	}
	return res
}

// elideBounds records an in-bounds proof for an array access whose guard
// the interval analysis discharged: the index interval is provably inside
// [0, length) of a definitely-allocated array, at a pc whose abstract state
// is trustworthy (no stack-depth clash). Called only after boundsCheck
// passed, during the reporting phase over the final fixpoint states.
func (a *analyzer) elideBounds(pc int, op string, idx iv, r refState) {
	if !a.reporting || a.clash[pc] {
		return
	}
	if r.init != triYes || idx.Lo < 0 || idx.Hi >= r.length.Lo {
		return
	}
	a.proofs = append(a.proofs, ElisionProof{
		PC: pc, Op: op,
		Reason: fmt.Sprintf("index ∈ %s proven within [0,%d)", idx, r.length.Lo),
		IdxLo:  idx.Lo, IdxHi: idx.Hi, LenLo: r.length.Lo,
	})
}

// boundsCheck emits OOB diagnostics for an array access and reports whether
// the access provably throws (so the path ends here).
func (a *analyzer) boundsCheck(pc int, idx, length iv) bool {
	certain := idx.Hi < 0 || (length.Hi < math.MaxInt64 && idx.Lo >= length.Hi)
	if certain {
		if idx.isExact() && length.isExact() {
			a.emit(pc, RuleOOB, SevError, "oob: index %d, len=%d", idx.Lo, length.Lo)
		} else {
			a.emit(pc, RuleOOB, SevError, "oob: index ∈ %s, len=%s", idx, length)
		}
		return true
	}
	if idx.Lo < 0 || idx.Hi >= length.Lo {
		a.emit(pc, RuleMaybeOOB, SevWarning, "index %s may escape bounds len=%s", idx, length)
	}
	return false
}

// entryState is the state at pc 0: empty stack, unknown argument locals
// (Invoke lets the caller fill any prefix of the locals), no live refs.
func (a *analyzer) entryState() *absState {
	st := &absState{
		locals: make([]iv, a.m.MaxLocals),
		refs:   make([]refState, a.m.MaxRefs),
	}
	for i := range st.locals {
		st.locals[i] = full()
	}
	return st
}

// AnalyzeMethod runs the abstract interpreter over m. natives supplies
// behavioural summaries for the native methods the program may call; pass
// nil when none are known. The method is validated first — a method failing
// interp.Validate gets a single BC-MALFORMED error and no further analysis.
func AnalyzeMethod(m *interp.Method, natives map[string]NativeSummary) *MethodResult {
	return analyzeMethod(m, natives, "")
}

func analyzeMethod(m *interp.Method, natives map[string]NativeSummary, file string) *MethodResult {
	res := &MethodResult{Method: m, Verdict: VerdictUnknown, Reachable: make([]bool, len(m.Code))}
	if err := interp.Validate(m); err != nil {
		res.Diags = []Diagnostic{{
			Rule: RuleMalformed, Sev: SevError, File: file, Method: m.Name, PC: -1,
			Message: err.Error(),
		}}
		return res
	}
	if len(m.Code) == 0 {
		res.Diags = []Diagnostic{{
			Rule: RuleFallOff, Sev: SevError, File: file, Method: m.Name, PC: -1,
			Message: "empty bytecode falls off the end immediately",
		}}
		return res
	}

	a := &analyzer{
		m: m, natives: natives, file: file,
		states: make([]*absState, len(m.Code)),
		visits: make([]int, len(m.Code)),
		clash:  make([]bool, len(m.Code)),
	}

	// Phase 1: worklist fixpoint over the in-states. step runs on a copy of
	// the in-state in scratch, which its first successor edge may carry;
	// an edge state is cloned only when it becomes a new in-state, since
	// joinInto just reads it.
	a.states[0] = a.entryState()
	work := []int{0}
	scratch := &absState{}
	for len(work) > 0 {
		pc := work[0]
		work = work[1:]
		a.visits[pc]++
		out := a.step(pc, a.states[pc].copyInto(scratch))
		for _, e := range out.succs {
			if a.states[e.to] == nil {
				if e.st == scratch {
					e.st = scratch.clone()
				}
				a.states[e.to] = e.st
				work = append(work, e.to)
				continue
			}
			changed, ok := joinInto(a.states[e.to], e.st, a.visits[e.to] > widenAfter)
			if !ok {
				a.clash[e.to] = true
				continue
			}
			if changed {
				work = append(work, e.to)
			}
		}
	}

	// Phase 2: one reporting pass over the fixpoint, re-running the transfer
	// function so diagnostics reflect the final (widest) states, while
	// classifying how each reachable path can terminate.
	a.reporting = true
	succs := make([][]int, len(m.Code))
	var hasReturn, hasThrow, hasFault, hasWarn, hasClash bool
	for pc := range m.Code {
		if a.states[pc] == nil {
			a.diags = append(a.diags, Diagnostic{
				Rule: RuleUnreachable, Sev: SevInfo, File: file, Method: m.Name, PC: pc,
				Message: "unreachable",
			})
			continue
		}
		res.Reachable[pc] = true
		if a.clash[pc] {
			// Different stack depths merge here. The interpreter runs either
			// depth happily; only the analysis loses track, so this poisons
			// the verdict rather than modelling a dynamic abort.
			a.emit(pc, RuleStack, SevWarning, "inconsistent operand stack depths merge here")
			hasClash = true
		}
		out := a.step(pc, a.states[pc].copyInto(scratch))
		for _, e := range out.succs {
			succs[pc] = append(succs[pc], e.to)
		}
		switch out.term {
		case termReturn:
			hasReturn = true
		case termThrow:
			hasThrow = true
		case termFault:
			hasFault = true
		}
	}
	for _, d := range a.diags {
		if d.Sev == SevWarning {
			hasWarn = true
		}
	}

	res.Diags = a.diags
	res.CallSites = a.sites
	res.Temporal = a.temporal
	res.Elision = compileElision(&Program{Method: m, Natives: natives}, a.proofs)
	SortDiagnostics(res.Diags)

	// Whole-method verdict. Safe: no reachable native call can fault (a
	// managed throw is not a fault). Fault: some reachable path provably
	// faults, no reachable path returns, throws or aborts instead, the
	// reachable CFG is acyclic (so execution cannot loop forever before the
	// fault), and nothing the analyzer is unsure about (warnings) is in play.
	allSafe := true
	for _, s := range a.sites {
		if s.Verdict != VerdictSafe {
			allSafe = false
		}
	}
	switch {
	case allSafe && !hasClash:
		res.Verdict = VerdictSafe
	case hasFault && !hasReturn && !hasThrow && !hasWarn && !hasClash &&
		len(m.Code) < maxProvableCode && acyclic(succs, res.Reachable):
		res.Verdict = VerdictFault
		res.FaultSite = a.faultSite
		res.Provenance = a.faultProv
	}
	return res
}

// acyclic reports whether the reachable subgraph has no cycle.
func acyclic(succs [][]int, reachable []bool) bool {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, len(succs))
	var visit func(int) bool
	visit = func(n int) bool {
		color[n] = gray
		for _, s := range succs[n] {
			switch color[s] {
			case gray:
				return false
			case white:
				if !visit(s) {
					return false
				}
			}
		}
		color[n] = black
		return true
	}
	for n := range succs {
		if reachable[n] && color[n] == white {
			if !visit(n) {
				return false
			}
		}
	}
	return true
}
