package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mte4jni/internal/analysis"
	"mte4jni/internal/core"
	"mte4jni/internal/exec"
	"mte4jni/internal/jni"
	"mte4jni/internal/pool"
	"mte4jni/internal/report"
	"mte4jni/internal/server"
	"mte4jni/internal/workloads"
)

// The traced run replays a workload's seeded requests without HTTP, calling
// each layer's public functions in the order the /run handler does and
// recording a span around every call. Spans are kept in memory and written
// out when the run ends.

// Span names, one per layer call. rootSpan covers a whole request.
const (
	rootSpan        = "request"
	spanDecode      = "server.decode"
	spanScreen      = "analysis.screen"
	spanParse       = "analysis.parse"
	spanLease       = "pool.lease"
	spanInterp      = "interp.run"
	spanProbe       = "redteam.probe"
	spanSetup       = "workloads.setup"
	spanCallNative  = "jni.call_native"
	spanBody        = "workloads.body"
	spanVerify      = "workloads.verify"
	spanRecordFault = "report.record_fault"
	spanRelease     = "pool.release"
	spanEncode      = "server.encode"
)

type span struct {
	Req    int32  `json:"req"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer records one worker's spans; span IDs are per request, the root
// being 0 with parent -1.
type tracer struct {
	base  time.Time
	spans []span
	req   int32
	first int // index of the current request's root span
}

func (t *tracer) startRequest(req int32) int32 {
	t.req, t.first = req, len(t.spans)
	return t.begin(rootSpan, -1)
}

func (t *tracer) begin(name string, parent int32) int32 {
	id := int32(len(t.spans) - t.first)
	t.spans = append(t.spans, span{Req: t.req, ID: id, Parent: parent, Name: name, Start: time.Since(t.base).Nanoseconds()})
	return id
}

func (t *tracer) end(id int32) { t.spans[t.first+int(id)].End = time.Since(t.base).Nanoseconds() }

// replayer holds the layer objects a daemon would own, built from the same
// configuration, but driven by direct calls.
type replayer struct {
	pool        *pool.Pool
	screen      *analysis.ScreenCache
	sink        *report.Sink
	safeElision *analysis.Elision
	// core accumulates Protector().Stats() deltas across exec calls.
	coreMu sync.Mutex
	core   core.Stats
}

func newReplayer(cfg server.Config) *replayer {
	r := &replayer{
		pool:   pool.New(cfg.Pool),
		screen: analysis.NewScreenCache(cfg.ScreenCacheSize),
		sink:   report.NewSink(cfg.SinkCapacity),
	}
	r.screen.SetTemporalPolicy(cfg.TemporalPolicy)
	if v := analysis.Screen(pool.SafeProgram()); v.Verdict == analysis.VerdictSafe {
		r.safeElision = v.Elision
	}
	return r
}

func (r *replayer) close() error {
	r.pool.Close()
	return r.pool.AssertDrained()
}

// serve runs one request body through the layers and returns its outcome.
func (r *replayer) serve(ctx context.Context, t *tracer, pos int32, body []byte) (outcome, error) {
	root := t.startRequest(pos)
	defer t.end(root)

	id := t.begin(spanDecode, root)
	var req server.RunRequest
	err := json.Unmarshal(body, &req)
	t.end(id)
	if err != nil {
		return outcome{}, err
	}
	scheme, err := server.ParseScheme(req.Scheme)
	if err != nil {
		return outcome{}, err
	}
	var (
		prog     *analysis.Program
		elision  *analysis.Elision
		workload string
		attack   bool
	)
	switch {
	case len(req.Program) > 0:
		id = t.begin(spanScreen, root)
		v, _, err := r.screen.ScreenBytes(req.Program)
		t.end(id)
		if err != nil {
			return outcome{}, err
		}
		temporal := false
		for _, f := range v.Temporal {
			temporal = temporal || f.Class.ExposedUnder(placement(scheme))
		}
		if v.Rejected() || temporal {
			id = t.begin(spanEncode, root)
			_, err := json.Marshal(server.RejectResponse{Error: v.Reason, Verdict: v})
			t.end(id)
			return outcome{Status: 422, Temporal: !v.Rejected()}, err
		}
		id = t.begin(spanParse, root)
		prog, err = analysis.ParseProgram(req.Program)
		t.end(id)
		if err != nil {
			return outcome{}, err
		}
		elision, workload = v.Elision, prog.Method.Name
	case req.Canned == "safe":
		prog, elision, workload = pool.SafeProgram(), r.safeElision, "canned:safe"
	case req.Canned == "oob":
		prog, workload = pool.OOBProgram(), "canned:oob"
	case req.Canned == "attack":
		attack, workload = true, "canned:attack"
	default:
		workload = req.Workload
	}

	id = t.begin(spanLease, root)
	sess, err := r.pool.AcquireFor(ctx, scheme, req.Tenant)
	t.end(id)
	if err != nil {
		return outcome{}, err
	}
	var before core.Stats
	prot := sess.Runtime().Protector()
	if prot != nil {
		before = prot.Stats()
	}
	ec := exec.New(ctx, exec.Options{})
	var res *pool.RunResult
	switch {
	case attack:
		id = t.begin(spanProbe, root)
		res = sess.RunAttackProbe(ec)
		t.end(id)
	case prog != nil:
		id = t.begin(spanInterp, root)
		res = sess.RunProgramElided(ec, prog, elision)
		t.end(id)
	default:
		res = runKernel(t, root, sess, req.Workload, req.Iterations)
	}
	if prot != nil {
		after := prot.Stats()
		r.coreMu.Lock()
		r.core.TagAllocs += after.TagAllocs - before.TagAllocs
		r.core.GranulesTagged += after.GranulesTagged - before.GranulesTagged
		r.core.TableLockContended += after.TableLockContended - before.TableLockContended
		r.core.ObjectLockContended += after.ObjectLockContended - before.ObjectLockContended
		r.coreMu.Unlock()
	}
	resp := server.RunResponse{
		Session: sess.Name(), Scheme: scheme.String(), Workload: workload,
		OK: !res.Faulted() && res.Err == nil, Ret: res.Ret,
		DurationNS: res.Duration.Nanoseconds(), ElidedSites: res.ElidedSites,
	}
	if res.Faulted() {
		id = t.begin(spanRecordFault, root)
		rec, _ := r.sink.RecordFault(sess.Name(), workload, res.Fault)
		t.end(id)
		resp.Fault = &rec
	}
	id = t.begin(spanRelease, root)
	r.pool.Release(sess)
	t.end(id)

	id = t.begin(spanEncode, root)
	_, err = json.Marshal(resp)
	t.end(id)
	return outcome{Status: 200, OK: resp.OK, Fault: res.Faulted(), Ret: res.Ret}, err
}

// runKernel is Session.RunWorkload taken apart into its public calls, so
// set-up, each trampoline transition and each kernel body get their own
// spans. Built-in kernels never fault, so there is no taint to latch.
func runKernel(t *tracer, root int32, sess *pool.Session, name string, iters int) *pool.RunResult {
	res := &pool.RunResult{}
	w, err := workloads.ByName(name, workloads.ScaleSmall)
	if err != nil {
		res.Err = err
		return res
	}
	if iters <= 0 {
		iters = 1
	}
	env := sess.Env()
	id := t.begin(spanSetup, root)
	err = w.Setup(env)
	t.end(id)
	if err != nil {
		res.Err = err
		return res
	}
	start := time.Now()
	for i := 0; i < iters && res.Fault == nil && res.Err == nil; i++ {
		call := t.begin(spanCallNative, root)
		res.Fault, res.Err = env.CallNative(name, jni.Regular, func(env *jni.Env) error {
			b := t.begin(spanBody, call)
			defer t.end(b)
			return w.Run(env)
		})
		t.end(call)
	}
	res.Duration = time.Since(start)
	if res.Fault == nil && res.Err == nil {
		id = t.begin(spanVerify, root)
		res.Err = w.Verify()
		t.end(id)
		if res.Err == nil {
			res.Ret = int64(iters)
		}
	}
	return res
}

// traceRun is the result of a traced replay.
type traceRun struct {
	spans    []span
	outcomes []outcome // by request position
	elapsed  time.Duration
	core     core.Stats
	errs     int
}

// replay serves seq through the layers over conns workers, as the closed
// loop does over HTTP: warm-up first, untimed and untraced, then the traced
// requests.
func replay(ctx context.Context, cfg server.Config, w *workload, seq []int32, conns int) (*traceRun, error) {
	r := newReplayer(cfg)
	drive := func(list []int32, traced bool) ([]span, []outcome, int, time.Duration) {
		outs := make([]outcome, len(list))
		var next atomic.Int64
		var mu sync.Mutex
		var all []span
		errs := 0
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < conns; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				t := &tracer{base: start}
				e := 0
				for {
					i := next.Add(1) - 1
					if int(i) >= len(list) {
						break
					}
					out, err := r.serve(ctx, t, int32(i), w.templates[list[i]].Body)
					if err != nil {
						e++
					}
					outs[i] = out
					if !traced {
						t.spans = t.spans[:0]
					}
				}
				mu.Lock()
				all = append(all, t.spans...)
				errs += e
				mu.Unlock()
			}()
		}
		wg.Wait()
		return all, outs, errs, time.Since(start)
	}
	_, _, werrs, _ := drive(w.warm, false)
	r.coreMu.Lock()
	r.core = core.Stats{}
	r.coreMu.Unlock()
	spans, outs, errs, elapsed := drive(seq, true)
	tr := &traceRun{spans: spans, outcomes: outs, elapsed: elapsed, core: r.core, errs: werrs + errs}
	if err := r.close(); err != nil {
		return nil, err
	}
	return tr, nil
}

// writeSpans dumps the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
