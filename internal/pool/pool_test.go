package pool

import (
	"context"
	"errors"
	"testing"
	"time"

	"mte4jni"
	"mte4jni/internal/workloads"
)

func testPool(t *testing.T, cfg Config) *Pool {
	t.Helper()
	if cfg.HeapSize == 0 {
		cfg.HeapSize = 8 << 20
	}
	p := New(cfg)
	t.Cleanup(p.Close)
	return p
}

func TestAcquireReleaseReuse(t *testing.T) {
	p := testPool(t, Config{MaxSessions: 2})
	ctx := context.Background()

	s1, err := p.Acquire(ctx, mte4jni.MTESync)
	if err != nil {
		t.Fatal(err)
	}
	name := s1.Name()
	res := s1.RunProgram(nil, SafeProgram())
	if res.Faulted() || res.Err != nil || res.Ret != 42 {
		t.Fatalf("safe program: ret=%d fault=%v err=%v", res.Ret, res.Fault, res.Err)
	}
	p.Release(s1)

	s2, err := p.Acquire(ctx, mte4jni.MTESync)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Name() != name {
		t.Fatalf("expected warm reuse of %s, got %s", name, s2.Name())
	}
	if s2.Generation() != 1 {
		t.Fatalf("generation after one recycle = %d, want 1", s2.Generation())
	}
	p.Release(s2)

	st := p.Stats()
	if st.Created != 1 || st.Reused != 1 || st.Quarantined != 0 {
		t.Fatalf("stats = %+v, want created=1 reused=1", st)
	}
	if st.Leased != 0 || st.Idle != 1 {
		t.Fatalf("stats = %+v, want leased=0 idle=1", st)
	}
}

func TestSchemesKeptApart(t *testing.T) {
	p := testPool(t, Config{MaxSessions: 4})
	ctx := context.Background()

	sSync, _ := p.Acquire(ctx, mte4jni.MTESync)
	p.Release(sSync)
	sNone, err := p.Acquire(ctx, mte4jni.NoProtection)
	if err != nil {
		t.Fatal(err)
	}
	if sNone.Name() == sSync.Name() {
		t.Fatal("a NoProtection lease was served the warm MTESync session")
	}
	// The unchecked scheme must not fault on the OOB program.
	if res := sNone.RunProgram(nil, OOBProgram()); res.Faulted() || res.Err != nil {
		t.Fatalf("OOB under NoProtection: fault=%v err=%v", res.Fault, res.Err)
	}
	p.Release(sNone)
}

func TestFaultQuarantinesSession(t *testing.T) {
	p := testPool(t, Config{MaxSessions: 1})
	ctx := context.Background()

	s, err := p.Acquire(ctx, mte4jni.MTESync)
	if err != nil {
		t.Fatal(err)
	}
	crashed := s.Name()
	res := s.RunProgram(nil, OOBProgram())
	if !res.Faulted() {
		t.Fatalf("OOB program did not fault under MTE+Sync (ret=%d err=%v)", res.Ret, res.Err)
	}
	if s.TaintFault() == nil {
		t.Fatal("fault did not taint the session")
	}
	p.Release(s)
	if s.rt.VM().Closed() != true {
		t.Fatal("quarantined session's VM was not closed")
	}

	// The slot must be replaceable: the next lease gets a fresh session.
	s2, err := p.Acquire(ctx, mte4jni.MTESync)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Name() == crashed {
		t.Fatal("quarantined session was reused")
	}
	if res := s2.RunProgram(nil, SafeProgram()); res.Faulted() || res.Err != nil {
		t.Fatalf("replacement session unhealthy: fault=%v err=%v", res.Fault, res.Err)
	}
	p.Release(s2)

	st := p.Stats()
	if st.Quarantined != 1 || st.Created != 2 {
		t.Fatalf("stats = %+v, want quarantined=1 created=2", st)
	}
	q := p.Quarantined()
	if len(q) != 1 || q[0].Session != crashed {
		t.Fatalf("quarantine log = %+v", q)
	}
}

func TestLeakedGlobalRetiresSession(t *testing.T) {
	p := testPool(t, Config{MaxSessions: 1})
	ctx := context.Background()

	s, err := p.Acquire(ctx, mte4jni.MTESync)
	if err != nil {
		t.Fatal(err)
	}
	leaky := s.Name()
	obj, err := s.Runtime().VM().NewIntArray(8)
	if err != nil {
		t.Fatal(err)
	}
	s.Runtime().VM().AddGlobalRef(obj)
	p.Release(s)

	st := p.Stats()
	if st.Retired != 1 || st.Quarantined != 0 {
		t.Fatalf("stats = %+v, want retired=1 (hygiene, not quarantine)", st)
	}
	s2, err := p.Acquire(ctx, mte4jni.MTESync)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Name() == leaky {
		t.Fatal("leaky session was reused")
	}
	p.Release(s2)
}

func TestBackpressure(t *testing.T) {
	p := testPool(t, Config{MaxSessions: 1, MaxWaiters: 1})
	ctx := context.Background()

	held, err := p.Acquire(ctx, mte4jni.NoProtection)
	if err != nil {
		t.Fatal(err)
	}

	// Fill the one waiter slot.
	waited := make(chan error, 1)
	go func() {
		s, err := p.Acquire(ctx, mte4jni.NoProtection)
		if err == nil {
			p.Release(s)
		}
		waited <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Waiters == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Queue full: fail fast.
	if _, err := p.Acquire(ctx, mte4jni.NoProtection); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-capacity acquire returned %v, want ErrOverloaded", err)
	}
	if p.Stats().Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", p.Stats().Rejected)
	}

	// Releasing unblocks the queued waiter.
	p.Release(held)
	if err := <-waited; err != nil {
		t.Fatalf("queued waiter failed: %v", err)
	}
}

func TestAcquireContextCancel(t *testing.T) {
	p := testPool(t, Config{MaxSessions: 1, MaxWaiters: 2})
	held, err := p.Acquire(context.Background(), mte4jni.NoProtection)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release(held)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := p.Acquire(ctx, mte4jni.NoProtection); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled acquire returned %v, want DeadlineExceeded", err)
	}
	if w := p.Stats().Waiters; w != 0 {
		t.Fatalf("waiters = %d after cancellation, want 0", w)
	}
}

func TestPoolClose(t *testing.T) {
	p := New(Config{MaxSessions: 2, HeapSize: 8 << 20})
	ctx := context.Background()

	idleS, _ := p.Acquire(ctx, mte4jni.MTESync)
	p.Release(idleS)
	leased, _ := p.Acquire(ctx, mte4jni.MTEAsync)

	p.Close()
	if !idleS.rt.VM().Closed() {
		t.Fatal("idle session not closed by pool Close")
	}
	if _, err := p.Acquire(ctx, mte4jni.MTESync); !errors.Is(err, ErrClosed) {
		t.Fatalf("acquire after close returned %v, want ErrClosed", err)
	}
	// The leased session is torn down at release time.
	p.Release(leased)
	if !leased.rt.VM().Closed() {
		t.Fatal("leased session not closed on post-Close release")
	}
	if n := len(p.Sessions()); n != 0 {
		t.Fatalf("%d sessions survive Close, want 0", n)
	}
	p.Close() // idempotent
}

func TestRunWorkload(t *testing.T) {
	p := testPool(t, Config{MaxSessions: 1, HeapSize: 32 << 20})
	s, err := p.Acquire(context.Background(), mte4jni.MTEAsync)
	if err != nil {
		t.Fatal(err)
	}
	res := s.RunWorkload(nil, "PDF Renderer", workloads.ScaleSmall, 2)
	if res.Faulted() || res.Err != nil {
		t.Fatalf("workload run: fault=%v err=%v", res.Fault, res.Err)
	}
	if res.Ret != 2 {
		t.Fatalf("ret = %d, want iteration count 2", res.Ret)
	}
	if res := s.RunWorkload(nil, "no-such-workload", workloads.ScaleSmall, 1); res.Err == nil {
		t.Fatal("unknown workload did not error")
	}
	p.Release(s)
	// Workload state must not leak: the session must have been recycled, not
	// retired.
	if st := p.Stats(); st.Retired != 0 || st.Idle != 1 {
		t.Fatalf("stats after workload lease = %+v, want retired=0 idle=1", st)
	}
}

func TestSessionsIntrospection(t *testing.T) {
	p := testPool(t, Config{MaxSessions: 2})
	ctx := context.Background()
	a, _ := p.Acquire(ctx, mte4jni.MTESync)
	b, _ := p.Acquire(ctx, mte4jni.MTEAsync)
	p.Release(b)

	infos := p.Sessions()
	if len(infos) != 2 {
		t.Fatalf("%d sessions listed, want 2", len(infos))
	}
	states := map[string]string{}
	for _, in := range infos {
		states[in.Session] = in.State
	}
	if states[a.Name()] != "leased" || states[b.Name()] != "idle" {
		t.Fatalf("states = %v", states)
	}
	p.Release(a)
}

// TestGuardedCopyWorkloadsFitSessionMemory runs every built-in workload at
// serving scale under guarded copy in a 4 MiB session, the serving
// benchmark's daemon configuration. A guarded-copy session's native space
// is only as large as its Java heap, so this pins that the copies of every
// kernel fit in it.
func TestGuardedCopyWorkloadsFitSessionMemory(t *testing.T) {
	p := testPool(t, Config{MaxSessions: 1, HeapSize: 4 << 20})
	var nativePeak uint64
	for _, w := range workloads.All(workloads.ScaleSmall) {
		s, err := p.Acquire(context.Background(), mte4jni.GuardedCopy)
		if err != nil {
			t.Fatal(err)
		}
		res := s.RunWorkload(nil, w.Name(), workloads.ScaleSmall, 4)
		if res.Faulted() || res.Err != nil || res.Ret != 4 {
			t.Errorf("%s: ret=%d fault=%v err=%v", w.Name(), res.Ret, res.Fault, res.Err)
		}
		nativePeak = max(nativePeak, s.Runtime().VM().NativeHeap.Stats().BytesPeak)
		p.Release(s)
	}
	if st := p.Stats(); st.Created != 1 || st.Retired != 0 || st.Quarantined != 0 {
		t.Fatalf("stats = %+v, want one session recycled through every workload", st)
	}
	t.Logf("peak native space use: %d of %d B", nativePeak, 4<<20)
}

// TestMaxSessionsBoundsLiveSessionsPerScheme pins the real bound on live
// sessions: MaxSessions caps concurrent leases, but warm idle sessions are
// parked per scheme and never evicted, so live sessions reach MaxSessions
// per scheme in use — never more than MaxSessions of any one scheme.
func TestMaxSessionsBoundsLiveSessionsPerScheme(t *testing.T) {
	p := testPool(t, Config{MaxSessions: 1, HeapSize: 1 << 20})
	ctx := context.Background()
	for round := 0; round < 2; round++ {
		for _, scheme := range mte4jni.Schemes() {
			s, err := p.Acquire(ctx, scheme)
			if err != nil {
				t.Fatal(err)
			}
			p.Release(s)
		}
		perScheme := map[string]int{}
		for _, in := range p.Sessions() {
			perScheme[in.Scheme]++
		}
		if len(perScheme) != 4 {
			t.Fatalf("round %d: live sessions per scheme = %v, want one for each of 4 schemes", round, perScheme)
		}
		for scheme, n := range perScheme {
			if n > 1 {
				t.Fatalf("round %d: %d live %s sessions, want at most MaxSessions=1", round, n, scheme)
			}
		}
		if st := p.Stats(); st.Idle != 4 || st.Created != 4 {
			t.Fatalf("round %d: stats = %+v, want 4 idle, 4 created", round, st)
		}
	}
}
