package pool

import (
	"context"
	"testing"

	"mte4jni"
	"mte4jni/internal/workloads"
)

// BenchmarkKernelRequest is one kernels request as the daemon serves it,
// minus HTTP: lease a session, RunWorkload, release it. Iterations cycle
// through the serving benchmark's kernels mix, the 16 kernels at ScaleSmall
// under each of the four schemes with 2, 3 or 4 iterations, on that
// benchmark's pool shape (4 sessions, 4 MiB heaps).
func BenchmarkKernelRequest(b *testing.B) {
	p := New(Config{MaxSessions: 4, HeapSize: 4 << 20})
	defer p.Close()
	all := workloads.All(workloads.ScaleSmall)
	schemes := mte4jni.Schemes()
	ctx := context.Background()
	request := func(i int) {
		name := all[i%len(all)].Name()
		scheme := schemes[i/len(all)%len(schemes)]
		iters := 2 + i/(len(all)*len(schemes))%3
		s, err := p.Acquire(ctx, scheme)
		if err != nil {
			b.Fatal(err)
		}
		res := s.RunWorkload(nil, name, workloads.ScaleSmall, iters)
		p.Release(s)
		if res.Faulted() || res.Err != nil || res.Ret != int64(iters) {
			b.Fatalf("%s under %s: ret=%d fault=%v err=%v", name, scheme, res.Ret, res.Fault, res.Err)
		}
	}
	// One untimed request per kernel and scheme creates the sessions and
	// anything else a first request pays for once.
	for i := 0; i < len(all)*len(schemes); i++ {
		request(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		request(i)
	}
}
