package analysis

import (
	"fmt"

	"mte4jni/internal/guardedcopy"
	"mte4jni/internal/jni"
)

// The temporal effect domain: where siteVerdict asks *whether* a native
// access violates, this pass asks *when the checker would notice*. Each call
// site's acquire/release critical window is modelled as a sequence of
// abstract events — the JNI acquire, every native access (including the
// post-violation damage repeats DamageOps declares), concurrent GC-scan and
// managed-mutator activity, the checkpoint, and the release. Happens-before
// is program order on the native thread; concurrent events are unordered
// with it. A site is exposed when some interfering write is ordered before
// the check that would observe the first violation (the async-TCF damage
// window, §4.3 / Figure 4c), when the check structurally cannot observe the
// violation at all (the §2.3 guarded-copy blind spots), or when a concurrent
// scan overlaps violating activity inside a deferred window (the GC-scan
// race). The classification feeds Screen, the server's -temporal-policy
// enforcement, and the window-safety obligation on elision proofs.

// WindowClass is a call site's temporal exposure.
type WindowClass string

const (
	// WindowClean: every violating access is observed before any later
	// event — no damage window, no blind spot.
	WindowClean WindowClass = "clean"
	// WindowRisk: under deferred tag checking (async TCF) interfering
	// writes land between the first violation and the trampoline-exit
	// report.
	WindowRisk WindowClass = "window-risk"
	// WindowGuardedCopyBlindSpot: release-time canary verification either
	// never observes the violation (oob reads, writes beyond both red
	// zones, managed writes erased by the copy-back) or observes it only
	// after interfering writes were banked.
	WindowGuardedCopyBlindSpot WindowClass = "guardedcopy-blindspot"
	// WindowScanRace: a concurrent GC scan overlaps violating native
	// activity inside a deferred-check window.
	WindowScanRace WindowClass = "scan-race"
)

// WindowEventKind classifies one abstract event inside the critical window.
type WindowEventKind string

const (
	// EvAcquire is the JNI hand-out opening the window.
	EvAcquire WindowEventKind = "acquire"
	// EvAccess is one native load/store through the handed-out pointer.
	EvAccess WindowEventKind = "access"
	// EvManagedWrite is a managed-side write to the same array committing
	// while the native holds its hand-out (concurrent with the native).
	EvManagedWrite WindowEventKind = "managed-write"
	// EvScan is a collector thread reading live payloads during the window
	// (concurrent with the native).
	EvScan WindowEventKind = "scan"
	// EvCheck is the checkpoint where the placement's sensor reports.
	EvCheck WindowEventKind = "check"
	// EvRelease is the JNI release closing the window.
	EvRelease WindowEventKind = "release"
)

// WindowEvent is one abstract event in a call site's critical window.
type WindowEvent struct {
	// Kind classifies the event.
	Kind WindowEventKind `json:"kind"`
	// Seq is the event's position in the native thread's program order.
	// Concurrent events share the window but are unordered with it.
	Seq int `json:"seq"`
	// Concurrent marks events on other threads (scan, managed mutator).
	Concurrent bool `json:"concurrent,omitempty"`
	// Write marks an access event as a store.
	Write bool `json:"write,omitempty"`
	// Off is the byte offset of an access event.
	Off int64 `json:"off,omitempty"`
	// Violating marks an access the placement's policy forbids (tag
	// mismatch for tag sensors, red-zone corruption for canary sensors).
	Violating bool `json:"violating,omitempty"`
	// Observed marks a violating access the placement's sensor would
	// actually see at its checkpoint.
	Observed bool `json:"observed,omitempty"`
	// Detail is the human-readable event description.
	Detail string `json:"detail,omitempty"`
}

// happensBefore reports whether a is ordered before b: program order on the
// native thread; concurrent events are unordered with everything.
func happensBefore(a, b WindowEvent) bool {
	return !a.Concurrent && !b.Concurrent && a.Seq < b.Seq
}

// TemporalFinding is one exposed call site: the class, the anchor, and the
// provenance chain (alloc → acquire → interfering-write → late-check) that
// justifies it. It rides the ScreenVerdict into the server's 422 payload.
type TemporalFinding struct {
	// Class is the exposure class.
	Class WindowClass `json:"class"`
	// PC is the call site's instruction index.
	PC int `json:"pc"`
	// Native names the native method.
	Native string `json:"native"`
	// Reason is the one-clause justification.
	Reason string `json:"reason"`
	// Chain is the temporal provenance chain.
	Chain ProvChain `json:"chain,omitempty"`
	// Events is the abstract window the classification was computed over.
	Events []WindowEvent `json:"events,omitempty"`
}

// newTemporalFinding builds a finding. Only the temporal effect domain
// derives findings; consumers read them off the ScreenVerdict.
func newTemporalFinding(class WindowClass, pc int, native, reason string) TemporalFinding {
	return TemporalFinding{Class: class, PC: pc, Native: native, Reason: reason}
}

// ExposedUnder reports whether the class is a live exposure when checks run
// at the given placement — the server's risky matrix: damage-window and
// scan-race classes matter under async TCF's trampoline-exit checkpoint,
// blind-spot classes under guarded copy's release-time verification. Sync
// TCF (per-access) and unprotected runs (never) are never downgraded or
// rejected on temporal grounds.
func (c WindowClass) ExposedUnder(place jni.CheckPlacement) bool {
	switch c {
	case WindowRisk, WindowScanRace:
		return place == jni.PlaceTrampolineExit
	case WindowGuardedCopyBlindSpot:
		return place == jni.PlaceAtRelease
	}
	return false
}

// TemporalPolicy is the server's admission policy for temporally exposed
// programs.
type TemporalPolicy string

const (
	// TemporalReject 422-rejects a program whose exposure class is live
	// under the requested scheme, carrying the temporal findings.
	TemporalReject TemporalPolicy = "reject"
	// TemporalForceSync transparently downgrades the run to sync TCF
	// (per-access checking closes the damage window).
	TemporalForceSync TemporalPolicy = "force-sync"
	// TemporalLog only counts the exposure and admits the run unchanged.
	TemporalLog TemporalPolicy = "log"
)

// ParseTemporalPolicy validates a -temporal-policy flag value; empty means
// the default, reject.
func ParseTemporalPolicy(s string) (TemporalPolicy, error) {
	switch TemporalPolicy(s) {
	case "":
		return TemporalReject, nil
	case TemporalReject, TemporalForceSync, TemporalLog:
		return TemporalPolicy(s), nil
	}
	return "", fmt.Errorf("analysis: unknown temporal policy %q (want reject, force-sync or log)", s)
}

// windowEvents builds the abstract event sequence for one call site under a
// checkpoint placement. Violating/Observed are placement-relative: tag
// sensors (per-access, trampoline-exit) fault on forged or stale tags and
// out-of-payload offsets; the canary sensor (at-release) only ever sees
// writes that land inside a red zone. exact reports whether the array
// length was statically exact — geometry-based violation claims are made
// only then. detailed controls the human-readable Detail strings: the
// classification pass runs on every call site of every screened program and
// only reads the structural fields, so it skips the rendering; the strings
// are built once more, only for the window attached to an exposed finding.
// scratch, when non-nil, is an empty buffer the events are appended into —
// classifyWindow reuses one buffer for every window it inspects so the
// common classify-then-discard path costs a single allocation per site.
func windowEvents(sum NativeSummary, length iv, place jni.CheckPlacement, detailed bool, scratch []WindowEvent) []WindowEvent {
	exact := length.isExact() && length.Lo >= 0 && length.Lo <= maxProvableLen
	se := int64(0)
	if exact {
		se = safeEnd(length.Lo)
	}

	// The access sequence Materialize realizes: MinOff, MaxOff, then the
	// DamageOps repeats at MinOff.
	naccess := 0
	if sum.Touches() {
		naccess = 1 + sum.DamageOps
		if sum.MaxOff != sum.MinOff {
			naccess++
		}
	}

	seq := 0
	next := func() int { seq++; return seq - 1 }
	// acquire + accesses + managed-write + scan + check + release.
	evs := scratch
	if cap(evs) < naccess+5 {
		evs = make([]WindowEvent, 0, naccess+5)
	}
	acquire := WindowEvent{Kind: EvAcquire, Seq: next()}
	if detailed {
		acquire.Detail = "GetIntArrayElements opens the critical window (payload handed to native code)"
	}
	evs = append(evs, acquire)
	for k := 0; k < naccess; k++ {
		off := sum.MinOff
		if k == 1 && sum.MaxOff != sum.MinOff {
			off = sum.MaxOff
		}
		ev := WindowEvent{Kind: EvAccess, Seq: next(), Write: sum.Write, Off: off}
		switch place {
		case jni.PlacePerAccess, jni.PlaceTrampolineExit:
			// Tag sensor: forged or stale tags always mismatch; offsets
			// outside the tag-rounded payload mismatch deterministically
			// inside the neighbour-exclusion window.
			ev.Violating = sum.ForgeTag || sum.UseAfterRelease ||
				(exact && (off < 0 || off >= se))
			ev.Observed = ev.Violating
		case jni.PlaceAtRelease:
			// Canary sensor: only writes change canaries, and only inside a
			// red zone. Reads and writes beyond both red zones violate the
			// hand-out contract but are structurally unobservable.
			inRedZone := exact && ((off >= -guardedcopy.RedZoneSize && off < 0) ||
				(off >= se && off < se+guardedcopy.RedZoneSize))
			outside := exact && (off < 0 || off >= se)
			ev.Violating = outside
			ev.Observed = sum.Write && inRedZone
		}
		if detailed {
			if ev.Write {
				ev.Detail = fmt.Sprintf("native store at byte offset %d", off)
			} else {
				ev.Detail = fmt.Sprintf("native load at byte offset %d", off)
			}
		}
		evs = append(evs, ev)
	}
	if sum.ManagedRace {
		ev := WindowEvent{Kind: EvManagedWrite, Seq: seq, Concurrent: true}
		if detailed {
			ev.Detail = "managed-side write to the same array commits while the native holds its hand-out"
		}
		evs = append(evs, ev)
	}
	if sum.ConcurrentScan {
		ev := WindowEvent{Kind: EvScan, Seq: seq, Concurrent: true}
		if detailed {
			ev.Detail = "collector thread scans live payloads concurrently with the window"
		}
		evs = append(evs, ev)
	}
	switch place {
	case jni.PlacePerAccess:
		// One checkpoint immediately after each access: model it as a check
		// right after the first violating access — nothing can be ordered
		// between a violation and its report.
		for i, ev := range evs {
			if ev.Kind == EvAccess && ev.Violating {
				check := WindowEvent{Kind: EvCheck, Seq: ev.Seq}
				if detailed {
					check.Detail = "sync TCF checks the access itself: the violating instruction faults"
				}
				rest := append([]WindowEvent(nil), evs[:i+1]...)
				rest = append(rest, check)
				evs = append(rest, evs[i+1:]...)
				break
			}
		}
	case jni.PlaceTrampolineExit:
		check := WindowEvent{Kind: EvCheck, Seq: next()}
		if detailed {
			check.Detail = "async TCF reports the latched fault at the trampoline exit"
		}
		evs = append(evs, check)
	case jni.PlaceAtRelease:
		check := WindowEvent{Kind: EvCheck, Seq: next()}
		if detailed {
			check.Detail = "guarded copy verifies red-zone canaries at release"
		}
		evs = append(evs, check)
	}
	release := WindowEvent{Kind: EvRelease, Seq: next()}
	if detailed {
		release.Detail = "ReleaseIntArrayElements closes the critical window"
	}
	return append(evs, release)
}

// interferingWrites counts write events ordered strictly between the first
// violating access and the checkpoint — the damage an attacker banks before
// the report.
func interferingWrites(evs []WindowEvent) int {
	var first, check *WindowEvent
	for i := range evs {
		ev := &evs[i]
		if ev.Kind == EvAccess && ev.Violating && first == nil {
			first = ev
		}
		if ev.Kind == EvCheck && check == nil {
			check = ev
		}
	}
	if first == nil || check == nil {
		return 0
	}
	n := 0
	for i := range evs {
		ev := &evs[i]
		if ev.Kind == EvAccess && ev.Write &&
			happensBefore(*first, *ev) && happensBefore(*ev, *check) {
			n++
		}
	}
	return n
}

// classifyWindow computes a call site's exposure class from its abstract
// windows under the two deferred placements. Per-access checking is the
// clean baseline by construction; @CriticalNative sites place no check at
// all, which RuleCriticalHeap already diagnoses — there is no *deferred*
// check to race.
func classifyWindow(sum NativeSummary, length iv) (WindowClass, string) {
	if sum.Kind == jni.CriticalNative || !sum.Touches() {
		return WindowClean, ""
	}
	// Each rule materializes only the abstract window it actually inspects,
	// detail-free and into one reused buffer: this runs on every call site
	// of every screened program, and the overwhelmingly common outcome is a
	// discarded WindowClean. Every window below is consumed before the next
	// one overwrites the buffer.
	var scratch []WindowEvent

	// GC-scan race: concurrent scan unordered with violating activity in a
	// deferred window.
	if sum.ConcurrentScan {
		async := windowEvents(sum, length, jni.PlaceTrampolineExit, false, scratch)
		scratch = async[:0]
		for _, ev := range async {
			if ev.Kind == EvAccess && ev.Violating {
				return WindowScanRace,
					"concurrent GC scan overlaps forged/stale native activity inside the deferred-check window"
			}
		}
	}
	// Guarded-copy blind spots, in §2.3 order of subtlety: the lost-update
	// copy-back race, structurally unobservable violations (oob reads,
	// far-jump writes), then deferred detection with banked damage.
	if sum.ManagedRace {
		return WindowGuardedCopyBlindSpot,
			"lost update: the release copy-back overwrites a managed write committed during the hold window"
	}
	release := windowEvents(sum, length, jni.PlaceAtRelease, false, scratch)
	var unobserved, deferred *WindowEvent
	for i := range release {
		ev := &release[i]
		if ev.Kind != EvAccess || !ev.Violating {
			continue
		}
		if !ev.Observed && unobserved == nil {
			unobserved = ev
		}
		if ev.Observed && deferred == nil {
			deferred = ev
		}
	}
	if unobserved != nil {
		if unobserved.Write {
			return WindowGuardedCopyBlindSpot, fmt.Sprintf(
				"far out-of-bounds write at offset %d lands beyond both red zones; release-time verification stays green",
				unobserved.Off)
		}
		return WindowGuardedCopyBlindSpot, fmt.Sprintf(
			"out-of-bounds read at offset %d corrupts no canary; release-time verification is structurally blind to it",
			unobserved.Off)
	}
	if deferred != nil {
		if n := interferingWrites(release); n > 0 {
			return WindowGuardedCopyBlindSpot, fmt.Sprintf(
				"deferred detection: %d damage writes are banked between the red-zone violation and the release-time report", n)
		}
	}
	// Async-TCF damage window: interfering writes between the latched
	// violation and the trampoline-exit report.
	if n := interferingWrites(windowEvents(sum, length, jni.PlaceTrampolineExit, false, release[:0])); n > 0 {
		return WindowRisk, fmt.Sprintf(
			"async TCF damage window: %d interfering writes land between the first violation and the trampoline-exit report", n)
	}
	return WindowClean, ""
}

// temporalSite classifies one reporting-phase call site and, when exposed,
// builds the finding with its provenance chain and the event window that
// justifies it.
func temporalSite(pc int, slot int64, r refState, name string, sum NativeSummary) (TemporalFinding, bool) {
	class, reason := classifyWindow(sum, r.length)
	if class == WindowClean {
		return TemporalFinding{}, false
	}
	f := newTemporalFinding(class, pc, name, reason)
	f.Chain = buildTemporalChain(pc, slot, r, name, sum, class, reason)
	place := jni.PlaceAtRelease
	if class == WindowRisk || class == WindowScanRace {
		place = jni.PlaceTrampolineExit
	}
	f.Events = windowEvents(sum, r.length, place, true, nil)
	return f, true
}

// buildTemporalChain renders the temporal provenance chain for an exposed
// site: alloc → acquire → interfering-write → late-check.
func buildTemporalChain(pc int, slot int64, r refState, name string, sum NativeSummary, class WindowClass, reason string) ProvChain {
	var chain ProvChain
	if r.allocPC > 0 {
		chain = append(chain, ProvStep{
			Kind: ProvAlloc, PC: r.allocPC - 1,
			Detail: fmt.Sprintf("newarray allocates ref slot %d (length %s, freshly tagged by irg)", slot, r.length),
		})
	} else {
		chain = append(chain, ProvStep{
			Kind: ProvAlloc, PC: -1,
			Detail: fmt.Sprintf("ref slot %d allocated on a merged path (site not unique)", slot),
		})
	}
	chain = append(chain, ProvStep{
		Kind: ProvAcquire, PC: pc, Native: name,
		Detail: "GetIntArrayElements opens the acquire/release critical window",
	})
	var write string
	switch {
	case sum.ManagedRace:
		write = "managed write commits during the hold; the release copy-back erases it with the stale snapshot"
	case !sum.Write:
		write = fmt.Sprintf("native load at offset %d leaves every canary byte intact", sum.MaxOff)
	case sum.DamageOps > 0:
		write = fmt.Sprintf("native stores at offsets [%d,%d] plus %d post-violation damage writes land inside the window",
			sum.MinOff, sum.MaxOff, sum.DamageOps)
	default:
		write = fmt.Sprintf("native stores at offsets [%d,%d] land inside the window", sum.MinOff, sum.MaxOff)
	}
	chain = append(chain, ProvStep{Kind: ProvWrite, PC: pc, Native: name, Detail: write})
	var check string
	switch class {
	case WindowGuardedCopyBlindSpot:
		check = "release-time canary verification is the only sensor, and it runs after the whole window: " + reason
	case WindowScanRace:
		check = "the deferred checkpoint leaves the scan window unprotected: " + reason
	default:
		check = "the trampoline-exit report arrives after the damage: " + reason
	}
	chain = append(chain, ProvStep{Kind: ProvCheck, PC: pc, Native: name, Detail: check})
	return chain
}

// TemporalAnnotations returns per-PC disassembly notes for exposed call
// sites ("window: <class>: <reason>") for `mte4jni lint -disasm`.
func TemporalAnnotations(res *MethodResult) map[int][]string {
	notes := make(map[int][]string)
	for _, f := range res.Temporal {
		notes[f.PC] = append(notes[f.PC], fmt.Sprintf("window: %s: %s", f.Class, f.Reason))
	}
	return notes
}
