package workloads

import (
	"encoding/binary"
	"sync"

	"mte4jni/internal/jni"
	"mte4jni/internal/vm"
)

// A workload's Setup has two halves. Its generator is a pure function of
// the workload's scale that builds the payload bytes of every Java array
// the workload reads; it runs at most once per process for each workload
// and scale, and its output is kept in inputTable. Its publish step runs
// on every Setup: it allocates fresh Java arrays in the caller's heap and
// bulk-copies the prebuilt bytes in. Native code only ever reaches those
// per-heap copies, never the shared bytes.

// array is one Java array a Setup publishes: its element kind, its length
// and its payload in the heap's little-endian layout. Nil data publishes a
// zeroed array.
type array struct {
	kind vm.Kind
	n    int
	data []byte
}

// byteArray wraps a byte[] payload.
func byteArray(data []byte) array { return array{vm.KindByte, len(data), data} }

// intArray encodes an int[] payload.
func intArray(vals []int32) array {
	data := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(data[4*i:], uint32(v))
	}
	return array{vm.KindInt, len(vals), data}
}

// zeroInts is an int[] output buffer of n elements.
func zeroInts(n int) array { return array{kind: vm.KindInt, n: n} }

// inputSet is one workload's generated input at one scale. Its arrays are
// written once, inside once, and only read afterwards.
type inputSet struct {
	once   sync.Once
	arrays []array
}

// inputTable holds every generated input: one row per suite workload, one
// column per scale, so it is bounded by construction.
var inputTable [len(suite)][ScaleDefault + 1]inputSet

// inputs returns the workload's input at its scale, running gen the first
// time it is asked for in this process. The result is shared: callers must
// not write to it.
func (m *meta) inputs(gen func() []array) []array {
	set := &inputTable[suiteIndex[m.name]][m.scale]
	set.once.Do(func() { set.arrays = gen() })
	return set.arrays
}

// publish allocates one fresh Java array per input through env, in order,
// copies each prebuilt payload in with one SetArrayRegion, and stores the
// array through the matching dst.
func publish(env *jni.Env, in []array, dst ...**vm.Object) error {
	for i, a := range in {
		arr, err := env.NewArray(a.kind, a.n)
		if err != nil {
			return err
		}
		if a.data != nil {
			if err := env.SetArrayRegion(a.kind, arr, 0, a.n, a.data); err != nil {
				return err
			}
		}
		*dst[i] = arr
	}
	return nil
}
