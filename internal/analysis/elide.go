package analysis

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"

	"mte4jni/internal/interp"
)

// The proof compiler: Screen no longer throws its per-site verdicts away
// after the admit/reject decision. Every reachable heap-access instruction
// whose guard is statically discharged — a native call site with
// VerdictSafe, an array access whose index interval is proven inside the
// array's length interval — is compiled into an Elision: an
// interp.ElisionMask (bitset over PCs) plus one ElisionProof per elided PC
// recording exactly the facts the verdict depended on, sealed under two
// digests.
//
// The program digest binds the proofs to the program text (code, layout,
// native names *and summaries*): ValidateBinding recomputes it at pool bind
// time, so a native summary that changed between screening and execution —
// the "summary mismatch" invalidation rule — drops the whole mask in one
// hash compare. The proof digest fingerprints the proofs themselves for
// reports and the fuzz witness.
//
// The facts a proof records are exactly what the dynamic witness re-checks:
// for a call site, that every traced access stays inside the tag-rounded
// payload the summary promised; for an array access, that every executed
// index the elided guard skipped was in bounds.

// ElisionProof records the static facts one elided PC's verdict rests on.
type ElisionProof struct {
	// PC is the elided instruction.
	PC int `json:"pc"`
	// Op is the instruction kind ("callnative", "aget", "aput").
	Op string `json:"op"`
	// Reason is the verdict's one-clause justification.
	Reason string `json:"reason"`

	// Call-site facts: the summary offsets the safe verdict assumed, and
	// whether it assumed the native touches the heap at all.
	Native  string `json:"native,omitempty"`
	Touches bool   `json:"touches,omitempty"`
	MinOff  int64  `json:"minOffset,omitempty"`
	MaxOff  int64  `json:"maxOffset,omitempty"`
	// WindowSafe records the discharged window-safety obligation for a call
	// site: the temporal domain classified the acquire/release window clean
	// (no interfering write can precede the check that would observe it).
	// Sites with a non-clean exposure never get a proof at all — the
	// obligation is part of what "elidable" means since the temporal pass.
	WindowSafe bool `json:"windowSafe,omitempty"`

	// Array-access facts: the index interval and the length lower bound the
	// in-bounds proof used.
	IdxLo int64 `json:"idxLo,omitempty"`
	IdxHi int64 `json:"idxHi,omitempty"`
	LenLo int64 `json:"lenLo,omitempty"`
}

// Elision is a compiled, digest-sealed elision mask for one program.
type Elision struct {
	mask          *interp.ElisionMask
	proofs        []ElisionProof
	programDigest [sha256.Size]byte
	proofDigest   [sha256.Size]byte
}

// Mask returns the PC bitset the interpreter binds.
func (el *Elision) Mask() *interp.ElisionMask { return el.mask }

// Sites returns the number of elided PCs.
func (el *Elision) Sites() int { return el.mask.Sites() }

// Proofs returns the per-PC proof records in PC order.
func (el *Elision) Proofs() []ElisionProof { return el.proofs }

// Proof returns the proof for one elided PC, or nil.
func (el *Elision) Proof(pc int) *ElisionProof {
	for i := range el.proofs {
		if el.proofs[i].PC == pc {
			return &el.proofs[i]
		}
	}
	return nil
}

// ProgramDigest returns the hex program digest the proofs are sealed to.
func (el *Elision) ProgramDigest() string { return hex.EncodeToString(el.programDigest[:]) }

// ProofDigest returns the hex digest over the proof records.
func (el *Elision) ProofDigest() string { return hex.EncodeToString(el.proofDigest[:]) }

// ValidateBinding checks that p is byte-for-byte the program these proofs
// were compiled from — same code, same layout, same native summaries. A
// mismatch (e.g. a summary rebound between screening and execution) means
// the proofs prove nothing about p and the mask must not arm.
func (el *Elision) ValidateBinding(p *Program) error {
	if got := programDigest(p); got != el.programDigest {
		return fmt.Errorf("analysis: elision proofs compiled for program %s, bound to %s",
			hex.EncodeToString(el.programDigest[:8]), hex.EncodeToString(got[:8]))
	}
	return nil
}

// programDigest hashes the canonical program text: method layout, every
// instruction, and the native summaries sorted by name. Each line is
// rendered with strconv appends into one small reused buffer and streamed
// into the hasher, so the cost does not grow with a buffer for the whole
// text: the digest seals every screened program (compileElision) and is
// recomputed on every admitted run (ValidateBinding). The byte stream is
// the original Fprintf format: %q is strconv.AppendQuote, %d/%t are
// AppendInt and AppendBool. TestProgramDigestGolden pins it.
func programDigest(p *Program) [sha256.Size]byte {
	h := sha256.New()
	line := make([]byte, 0, 128)
	emit := func() {
		h.Write(line)
		line = line[:0]
	}
	line = append(line, "method "...)
	line = strconv.AppendQuote(line, p.Method.Name)
	line = append(line, " locals="...)
	line = strconv.AppendInt(line, int64(p.Method.MaxLocals), 10)
	line = append(line, " refs="...)
	line = strconv.AppendInt(line, int64(p.Method.MaxRefs), 10)
	line = append(line, '\n')
	emit()
	for _, name := range p.Method.NativeNames {
		line = append(line, "link "...)
		line = strconv.AppendQuote(line, name)
		line = append(line, '\n')
		emit()
	}
	for pc, in := range p.Method.Code {
		line = strconv.AppendInt(line, int64(pc), 10)
		line = append(line, ':', ' ')
		line = strconv.AppendInt(line, int64(in.Op), 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, in.A, 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, in.B, 10)
		line = append(line, '\n')
		emit()
	}
	names := make([]string, 0, len(p.Natives))
	for name := range p.Natives {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := p.Natives[name]
		line = append(line, "native "...)
		line = strconv.AppendQuote(line, name)
		line = append(line, " kind="...)
		line = strconv.AppendInt(line, int64(s.Kind), 10)
		line = append(line, " off=["...)
		line = strconv.AppendInt(line, s.MinOff, 10)
		line = append(line, ',')
		line = strconv.AppendInt(line, s.MaxOff, 10)
		line = append(line, "] w="...)
		line = strconv.AppendBool(line, s.Write)
		line = append(line, " uar="...)
		line = strconv.AppendBool(line, s.UseAfterRelease)
		line = append(line, " forge="...)
		line = strconv.AppendBool(line, s.ForgeTag)
		line = append(line, " dmg="...)
		line = strconv.AppendInt(line, int64(s.DamageOps), 10)
		line = append(line, " scan="...)
		line = strconv.AppendBool(line, s.ConcurrentScan)
		line = append(line, " race="...)
		line = strconv.AppendBool(line, s.ManagedRace)
		line = append(line, '\n')
		emit()
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// compileElision seals the reporting phase's elided PCs and proofs into an
// Elision for the program. Proofs arrive in the phase-2 PC scan order, i.e.
// already sorted by PC.
func compileElision(p *Program, proofs []ElisionProof) *Elision {
	pcs := make([]int, len(proofs))
	for i, pr := range proofs {
		pcs[i] = pr.PC
	}
	el := &Elision{
		mask:          interp.NewElisionMask(len(p.Method.Code), pcs),
		proofs:        proofs,
		programDigest: programDigest(p),
	}
	buf := make([]byte, 0, 96*len(proofs))
	for _, pr := range proofs {
		buf = strconv.AppendInt(buf, int64(pr.PC), 10)
		buf = append(buf, ' ')
		buf = append(buf, pr.Op...)
		buf = append(buf, ' ')
		buf = strconv.AppendQuote(buf, pr.Reason)
		buf = append(buf, ' ')
		buf = strconv.AppendQuote(buf, pr.Native)
		buf = append(buf, ' ')
		buf = strconv.AppendBool(buf, pr.Touches)
		buf = append(buf, ' ')
		buf = strconv.AppendBool(buf, pr.WindowSafe)
		buf = append(buf, " ["...)
		buf = strconv.AppendInt(buf, pr.MinOff, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, pr.MaxOff, 10)
		buf = append(buf, "] ["...)
		buf = strconv.AppendInt(buf, pr.IdxLo, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, pr.IdxHi, 10)
		buf = append(buf, "] "...)
		buf = strconv.AppendInt(buf, pr.LenLo, 10)
		buf = append(buf, '\n')
	}
	el.proofDigest = sha256.Sum256(buf)
	return el
}

// ElideAnnotations returns per-PC disassembly notes for every heap-access
// instruction: "elide: <reason>" when the proof compiler discharged its
// guard, "checked: <reason>" otherwise — the human-auditable rendering of
// the compiler's output for `mte4jni lint -disasm`.
func ElideAnnotations(res *MethodResult) map[int][]string {
	notes := make(map[int][]string)
	siteReason := make(map[int]string, len(res.CallSites))
	for _, s := range res.CallSites {
		siteReason[s.PC] = s.Reason
	}
	for pc, in := range res.Method.Code {
		switch in.Op {
		case interp.OpArrayGet, interp.OpArrayPut, interp.OpCallNative:
		default:
			continue
		}
		if pc < len(res.Reachable) && !res.Reachable[pc] {
			continue // already annotated "unreachable" by the diagnostics
		}
		if res.Elision != nil {
			if pr := res.Elision.Proof(pc); pr != nil {
				notes[pc] = append(notes[pc], "elide: "+pr.Reason)
				continue
			}
		}
		reason := "guard not statically discharged"
		if r, ok := siteReason[pc]; ok && r != "" {
			reason = r
		}
		notes[pc] = append(notes[pc], "checked: "+reason)
	}
	return notes
}
