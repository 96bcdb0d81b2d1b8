package analysis

import (
	"encoding/json"
	"fmt"
	"os"

	"mte4jni/internal/interp"
	"mte4jni/internal/jni"
)

// A program file is the on-disk form `mte4jni lint` consumes: one bytecode
// method plus the behavioural summaries of the natives it calls, as JSON.
// Opcode names match interp.Opcode.String(), so a listing and its file read
// the same:
//
//	{
//	  "method": {
//	    "name": "main", "maxLocals": 1, "maxRefs": 1,
//	    "nativeNames": ["sum"],
//	    "code": [
//	      {"op": "const", "a": 18},
//	      {"op": "newarray", "a": 0},
//	      {"op": "callnative", "a": 0, "b": 0},
//	      {"op": "const", "a": 0},
//	      {"op": "return"}
//	    ]
//	  },
//	  "natives": {
//	    "sum": {"kind": "regular", "minOffset": 0, "maxOffset": 71}
//	  }
//	}

// Program couples a method with the native summaries in scope for it.
type Program struct {
	Method  *interp.Method
	Natives map[string]NativeSummary
}

// programJSON is the wire form.
type programJSON struct {
	Method  methodJSON            `json:"method"`
	Natives map[string]nativeJSON `json:"natives,omitempty"`
}

type methodJSON struct {
	Name        string     `json:"name"`
	MaxLocals   int        `json:"maxLocals"`
	MaxRefs     int        `json:"maxRefs"`
	NativeNames []string   `json:"nativeNames,omitempty"`
	Code        []instJSON `json:"code"`
}

type instJSON struct {
	Op string `json:"op"`
	A  int64  `json:"a,omitempty"`
	B  int64  `json:"b,omitempty"`
}

type nativeJSON struct {
	Kind            string `json:"kind,omitempty"`
	MinOffset       int64  `json:"minOffset"`
	MaxOffset       int64  `json:"maxOffset"`
	Write           bool   `json:"write,omitempty"`
	UseAfterRelease bool   `json:"useAfterRelease,omitempty"`
	ForgeTag        bool   `json:"forgeTag,omitempty"`
	DamageOps       int    `json:"damageOps,omitempty"`
	ConcurrentScan  bool   `json:"concurrentScan,omitempty"`
	ManagedRace     bool   `json:"managedRace,omitempty"`
}

// opByName maps Opcode.String() names back to opcodes.
var opByName = func() map[string]interp.Opcode {
	m := make(map[string]interp.Opcode)
	for op := interp.OpConst; op <= interp.OpReturn; op++ {
		m[op.String()] = op
	}
	return m
}()

// kindByName maps the JSON kind names to trampoline kinds.
var kindByName = map[string]jni.NativeKind{
	"":         jni.Regular,
	"regular":  jni.Regular,
	"fast":     jni.FastNative,
	"critical": jni.CriticalNative,
}

// KindName renders a NativeKind in the JSON vocabulary.
func KindName(k jni.NativeKind) string {
	switch k {
	case jni.FastNative:
		return "fast"
	case jni.CriticalNative:
		return "critical"
	default:
		return "regular"
	}
}

// ParseProgram decodes a JSON program.
func ParseProgram(data []byte) (*Program, error) {
	var pj programJSON
	if err := json.Unmarshal(data, &pj); err != nil {
		return nil, fmt.Errorf("analysis: parse program: %w", err)
	}
	m := &interp.Method{
		Name:        pj.Method.Name,
		MaxLocals:   pj.Method.MaxLocals,
		MaxRefs:     pj.Method.MaxRefs,
		NativeNames: pj.Method.NativeNames,
		Code:        make([]interp.Inst, 0, len(pj.Method.Code)),
	}
	if m.Name == "" {
		m.Name = "main"
	}
	for i, ij := range pj.Method.Code {
		op, ok := opByName[ij.Op]
		if !ok {
			return nil, fmt.Errorf("analysis: parse program: pc %d: unknown opcode %q", i, ij.Op)
		}
		m.Code = append(m.Code, interp.Inst{Op: op, A: ij.A, B: ij.B})
	}
	p := &Program{Method: m, Natives: make(map[string]NativeSummary)}
	for name, nj := range pj.Natives {
		kind, ok := kindByName[nj.Kind]
		if !ok {
			return nil, fmt.Errorf("analysis: parse program: native %q: unknown kind %q", name, nj.Kind)
		}
		p.Natives[name] = NativeSummary{
			Kind: kind, MinOff: nj.MinOffset, MaxOff: nj.MaxOffset,
			Write: nj.Write, UseAfterRelease: nj.UseAfterRelease, ForgeTag: nj.ForgeTag,
			DamageOps: nj.DamageOps, ConcurrentScan: nj.ConcurrentScan, ManagedRace: nj.ManagedRace,
		}
	}
	return p, nil
}

// MarshalProgram encodes a program to the JSON wire form (indented), the
// inverse of ParseProgram. The fuzzer uses it to persist failing programs.
func MarshalProgram(p *Program) ([]byte, error) {
	pj := programJSON{
		Method: methodJSON{
			Name:        p.Method.Name,
			MaxLocals:   p.Method.MaxLocals,
			MaxRefs:     p.Method.MaxRefs,
			NativeNames: p.Method.NativeNames,
		},
	}
	for _, in := range p.Method.Code {
		pj.Method.Code = append(pj.Method.Code, instJSON{Op: in.Op.String(), A: in.A, B: in.B})
	}
	if len(p.Natives) > 0 {
		pj.Natives = make(map[string]nativeJSON, len(p.Natives))
		for name, s := range p.Natives {
			pj.Natives[name] = nativeJSON{
				Kind: KindName(s.Kind), MinOffset: s.MinOff, MaxOffset: s.MaxOff,
				Write: s.Write, UseAfterRelease: s.UseAfterRelease, ForgeTag: s.ForgeTag,
				DamageOps: s.DamageOps, ConcurrentScan: s.ConcurrentScan, ManagedRace: s.ManagedRace,
			}
		}
	}
	return json.MarshalIndent(pj, "", "  ")
}

// LoadProgram reads and parses a program file.
func LoadProgram(path string) (*Program, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseProgram(data)
}

// Analyze runs the abstract interpreter over the program. file, when
// nonempty, is stamped into the diagnostics for grep-able output.
func (p *Program) Analyze(file string) *MethodResult {
	return analyzeMethod(p.Method, p.Natives, file)
}
