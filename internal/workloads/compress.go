package workloads

import (
	"fmt"
	"sync"

	"mte4jni/internal/jni"
	"mte4jni/internal/vm"
)

// FileCompression stands in for GB6 "File Compression": an LZ77-style
// compressor with a 4 KiB sliding window run over a synthetic text corpus
// held in a Java byte[]. Bulk pattern: the corpus is pulled across JNI
// once, compressed natively, and the compressed size is recorded.
type FileCompression struct {
	meta
	size  int
	input *vm.Object
	ratio float64
}

// NewFileCompression builds the workload at the given scale.
func NewFileCompression(s Scale) *FileCompression {
	size := 1 << 20
	if s == ScaleSmall {
		size = 16 << 10
	}
	return &FileCompression{meta: newMeta("File Compression", Bulk, s), size: size}
}

// Setup implements Workload.
func (w *FileCompression) Setup(env *jni.Env) error {
	return publish(env, w.inputs(w.generate), &w.input)
}

// generate synthesizes a compressible corpus.
func (w *FileCompression) generate() []array {
	words := []string{"the ", "quick ", "brown ", "fox ", "jumps ", "over ", "lazy ", "dog ", "memory ", "tagging "}
	data := make([]byte, w.size)
	rng := xorshift32(0xC0FFEE)
	pos := 0
	for pos < w.size {
		word := words[rng.next()%uint32(len(words))]
		n := copy(data[pos:], word)
		pos += n
	}
	return []array{byteArray(data)}
}

// lz77Heads recycles lz77Compress's hash-head tables across runs.
var lz77Heads = sync.Pool{New: func() any { return make(map[uint32]int) }}

// lz77Compress compresses src with a hash-chained LZ77 and returns the
// output length.
func lz77Compress(src []byte) int {
	const window = 4096
	const minMatch = 4
	head := lz77Heads.Get().(map[uint32]int)
	outLen := 0
	hash := func(i int) uint32 {
		return uint32(src[i]) | uint32(src[i+1])<<8 | uint32(src[i+2])<<16 | uint32(src[i+3])<<24
	}
	i := 0
	for i+minMatch <= len(src) {
		h := hash(i)
		cand, ok := head[h]
		head[h] = i
		if ok && i-cand <= window && cand+minMatch <= len(src) {
			// Extend the match.
			length := 0
			for i+length < len(src) && src[cand+length] == src[i+length] && length < 255 {
				length++
			}
			if length >= minMatch {
				outLen += 3 // (distance, length) token
				i += length
				continue
			}
		}
		outLen++ // literal
		i++
	}
	outLen += len(src) - i
	clear(head)
	lz77Heads.Put(head)
	return outLen
}

// Run implements Workload.
func (w *FileCompression) Run(env *jni.Env) error {
	data, err := acquireBytes(env, w.input)
	if err != nil {
		return err
	}
	if err := checkpoint(env); err != nil {
		return err
	}
	out := lz77Compress(data)
	w.ratio = float64(out) / float64(len(data))
	return nil
}

// Verify implements Workload: the synthetic corpus is highly compressible.
func (w *FileCompression) Verify() error {
	if w.ratio <= 0 || w.ratio > 0.8 {
		return fmt.Errorf("File Compression: implausible ratio %.3f", w.ratio)
	}
	return nil
}

// AssetCompression stands in for GB6 "Asset Compression": delta encoding
// plus run-length compression of quantized mesh vertex data held in a Java
// int[]. Bulk pattern.
type AssetCompression struct {
	meta
	verts  int
	mesh   *vm.Object
	outLen int
}

// NewAssetCompression builds the workload at the given scale.
func NewAssetCompression(s Scale) *AssetCompression {
	verts := 1 << 18
	if s == ScaleSmall {
		verts = 1 << 12
	}
	return &AssetCompression{meta: newMeta("Asset Compression", Bulk, s), verts: verts}
}

// Setup implements Workload.
func (w *AssetCompression) Setup(env *jni.Env) error {
	return publish(env, w.inputs(w.generate), &w.mesh)
}

// generate synthesizes smooth vertex positions, which delta-encode well.
func (w *AssetCompression) generate() []array {
	mesh := make([]int32, w.verts)
	rng := xorshift32(0xA55E7)
	v := int32(1 << 20)
	for i := range mesh {
		v += int32(rng.next()%17) - 8 // small jitter: smooth surface
		mesh[i] = v
	}
	return []array{intArray(mesh)}
}

// Run implements Workload.
func (w *AssetCompression) Run(env *jni.Env) error {
	vals, err := acquireInts(env, w.mesh)
	if err != nil {
		return err
	}
	if err := checkpoint(env); err != nil {
		return err
	}
	// Delta encode.
	deltas := make([]int32, len(vals))
	prev := int32(0)
	for i, v := range vals {
		deltas[i] = v - prev
		prev = v
	}
	// Byte-oriented RLE over the low bytes of the deltas.
	out := 0
	run := 0
	var last byte
	for i, d := range deltas {
		b := byte(d)
		if i > 0 && b == last && run < 255 {
			run++
			continue
		}
		out += 2 // (value, runlen)
		last, run = b, 1
	}
	out += 2
	w.outLen = out
	return nil
}

// Verify implements Workload: smooth data must shrink.
func (w *AssetCompression) Verify() error {
	if w.outLen <= 0 || w.outLen >= w.verts*4 {
		return fmt.Errorf("Asset Compression: implausible output %d for %d ints", w.outLen, w.verts)
	}
	return nil
}
