package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mte4jni/internal/exec"
	"mte4jni/internal/pool"
	"mte4jni/internal/server"
)

// daemon is one in-process `mte4jni serve` instance on a loopback listener,
// plus the client that drives it over at most conns connections.
type daemon struct {
	srv    *server.Server
	url    string
	cl     *http.Client
	conns  int
	served chan error
}

func startDaemon(cfg server.Config, conns int) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{
		srv:    server.New(cfg),
		url:    "http://" + ln.Addr().String(),
		conns:  conns,
		served: make(chan error, 1),
		cl: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	return d, nil
}

// stop drains the daemon (which also checks its lease ledgers balance) and
// waits for Serve to return.
func (d *daemon) stop(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	d.cl.CloseIdleConnections()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.served; err == nil {
		err = serr
	}
	return err
}

// phaseSpans holds a reply's server span durations, indexed by exec.Phase.
type phaseSpans [exec.NumPhases]int64

// result is one request as the client saw it.
type result struct {
	pos   int32 // position in the request stream
	tmpl  int32
	got   outcome
	latNS int64
	dueNS int64 // open loop: due time, from the phase start
	// spans holds the server's phase durations (-1 when the phase did not
	// run); only 200 replies carry spans.
	spans  phaseSpans
	elided int
}

// spanSum is the server time the reply accounts for. The screen phase runs
// inside the edge phase, so it is not added again.
func (r *result) spanSum() int64 {
	var s int64
	for p, d := range r.spans {
		if d > 0 && exec.Phase(p) != exec.PhaseScreen {
			s += d
		}
	}
	return s
}

// phase is one measured stretch of traffic against one daemon.
type phase struct {
	results          []result
	elapsed          time.Duration
	before, after    procSample
	mBefore, mAfter  *server.MetricsResponse
	lagNS            []float64 // open loop only: dispatcher lateness
	sendErrors       []string  // requests that got no classifiable reply
	reconcileProblem []string
}

var phaseByName = map[string]exec.Phase{}

func init() {
	for p := exec.Phase(0); p < exec.NumPhases; p++ {
		phaseByName[p.String()] = p
	}
}

// send posts one /run body and classifies the reply.
func (d *daemon) send(ctx context.Context, t *template) (result, error) {
	var r result
	for i := range r.spans {
		r.spans[i] = -1
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.url+"/run", bytes.NewReader(t.Body))
	if err != nil {
		return r, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.cl.Do(req)
	if err != nil {
		return r, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return r, err
	}
	r.got.Status = resp.StatusCode
	switch resp.StatusCode {
	case http.StatusOK:
		var rr server.RunResponse
		if err := json.Unmarshal(data, &rr); err != nil {
			return r, fmt.Errorf("decode 200 reply: %w", err)
		}
		r.got.OK, r.got.Fault, r.got.Ret = rr.OK, rr.Fault != nil, rr.Ret
		r.elided = rr.ElidedSites
		for _, sp := range rr.Spans {
			if p, ok := phaseByName[sp.Phase]; ok {
				r.spans[p] = sp.DurationNS
			}
		}
	case http.StatusUnprocessableEntity:
		var rj struct {
			Verdict *struct {
				Verdict string `json:"verdict"`
			} `json:"verdict"`
		}
		if err := json.Unmarshal(data, &rj); err != nil || rj.Verdict == nil {
			return r, fmt.Errorf("422 reply without a verdict: %s", data)
		}
		r.got.Temporal = rj.Verdict.Verdict != "provably-faulting"
	}
	return r, nil
}

func (d *daemon) metrics(ctx context.Context) (*server.MetricsResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.cl.Do(req)
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	var m server.MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	return &m, nil
}

// collector gathers results from the connection workers.
type collector struct {
	mu      sync.Mutex
	results []result
	errs    []string
}

func (c *collector) add(r result, err error) {
	c.mu.Lock()
	c.results = append(c.results, r)
	if err != nil {
		c.errs = append(c.errs, fmt.Sprintf("request %d: %v", r.pos, err))
	}
	c.mu.Unlock()
}

// measure runs drive between two /metrics snapshots and two process
// samples, then reconciles the daemon's counters with what drive sent.
func (d *daemon) measure(ctx context.Context, w *workload, drive func(ph *phase, col *collector)) (*phase, error) {
	ph := &phase{}
	var err error
	if ph.mBefore, err = d.metrics(ctx); err != nil {
		return nil, err
	}
	var col collector
	ph.before = sampleProc()
	drive(ph, &col)
	ph.after = sampleProc()
	ph.elapsed = ph.after.wall.Sub(ph.before.wall)
	ph.results, ph.sendErrors = col.results, col.errs
	if ph.mAfter, err = d.metrics(ctx); err != nil {
		return nil, err
	}
	ph.reconcile(w)
	return ph, nil
}

// closedLoop sends seq from position from on, in order, over d.conns
// connections, each sending its next request as soon as its previous reply
// is in, until the stream or the duration (0 = unlimited) runs out.
func (d *daemon) closedLoop(ctx context.Context, w *workload, seq []int32, from int, dur time.Duration) (*phase, error) {
	return d.measure(ctx, w, func(ph *phase, col *collector) {
		var next atomic.Int64
		next.Store(int64(from))
		var wg sync.WaitGroup
		for c := 0; c < d.conns; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					// Time is checked before a position is taken, so every
					// position taken is sent and the positions sent are
					// exactly seq[from:from+len(results)].
					if dur > 0 && time.Since(ph.before.wall) >= dur {
						return
					}
					i := next.Add(1) - 1
					if int(i) >= len(seq) {
						return
					}
					t0 := time.Now()
					r, err := d.send(ctx, &w.templates[seq[i]])
					r.latNS = time.Since(t0).Nanoseconds()
					r.pos, r.tmpl = int32(i), seq[i]
					col.add(r, err)
				}
			}()
		}
		wg.Wait()
	})
}

// openLoop offers seq at the arrival times due (ns offsets) for dur. A
// dispatcher releases each request when it is due; d.conns workers send
// them in order. Latency runs from the due time, so a stall also charges
// the requests queued behind it.
func (d *daemon) openLoop(ctx context.Context, w *workload, seq []int32, due []int64, dur time.Duration) (*phase, error) {
	n := 0
	for n < len(due) && n < len(seq) && due[n] < dur.Nanoseconds() {
		n++
	}
	return d.measure(ctx, w, func(ph *phase, col *collector) {
		type job struct {
			pos int
			due time.Time
		}
		// Buffered for every arrival of the phase, so the dispatcher never
		// blocks on busy workers and its lateness measures only itself.
		jobs := make(chan job, n)
		var wg sync.WaitGroup
		for c := 0; c < d.conns; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range jobs {
					r, err := d.send(ctx, &w.templates[seq[j.pos]])
					r.latNS = time.Since(j.due).Nanoseconds()
					r.pos, r.tmpl, r.dueNS = int32(j.pos), seq[j.pos], due[j.pos]
					col.add(r, err)
				}
			}()
		}
		ph.lagNS = make([]float64, 0, n)
		for i := 0; i < n; i++ {
			at := ph.before.wall.Add(time.Duration(due[i]))
			waitUntil(at)
			ph.lagNS = append(ph.lagNS, float64(time.Since(at).Nanoseconds()))
			jobs <- job{pos: i, due: at}
		}
		close(jobs)
		wg.Wait()
	})
}

// waitUntil blocks the calling thread in nanosleep until at. time.Sleep is
// not used: an idle Go scheduler rounds timer waits up to whole milliseconds,
// as long as the sub-millisecond latencies being measured, and spinning
// would take a CPU from the daemon.
func waitUntil(at time.Time) {
	for {
		d := time.Until(at)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop re-checks the clock
	}
}

// failures counts the phase's requests whose reply differs from the
// oracle, transport errors included, plus every /metrics counter that does
// not reconcile with what the phase sent.
func (ph *phase) failures(w *workload) int {
	n := len(ph.reconcileProblem)
	for i := range ph.results {
		r := &ph.results[i]
		if !w.templates[r.tmpl].Want.matches(r.got) {
			n++
		}
	}
	return n
}

// mismatches describes up to max failing requests, for the log.
func (ph *phase) mismatches(w *workload, max int) []string {
	var out []string
	for i := range ph.results {
		r := &ph.results[i]
		if want := w.templates[r.tmpl].Want; !want.matches(r.got) && len(out) < max {
			out = append(out, fmt.Sprintf("request %d (template %d, %s): want %v, got %v", r.pos, r.tmpl, w.templates[r.tmpl].Scheme, want, r.got))
		}
	}
	if len(ph.sendErrors) > max {
		out = append(out, ph.sendErrors[:max]...)
	} else {
		out = append(out, ph.sendErrors...)
	}
	return append(out, ph.reconcileProblem...)
}

// reconcile checks the daemon's /metrics deltas over the phase against the
// counts the oracle implies for the requests the phase sent.
func (ph *phase) reconcile(w *workload) {
	var served, faults, errs, screened, rejected, temporal uint64
	for i := range ph.results {
		t := &w.templates[ph.results[i].tmpl]
		if t.Class.program() {
			screened++
		}
		switch {
		case t.Want.Status == 422 && t.Want.Temporal:
			temporal++
		case t.Want.Status == 422:
			rejected++
		default:
			served++
			if t.Want.Fault {
				faults++
			} else if !t.Want.OK {
				errs++
			}
		}
	}
	b, a := ph.mBefore, ph.mAfter
	check := func(name string, got, want uint64) {
		if got != want {
			ph.reconcileProblem = append(ph.reconcileProblem, fmt.Sprintf("/metrics %s moved by %d, want %d", name, got, want))
		}
	}
	check("requests_total", a.RequestsTotal-b.RequestsTotal, served)
	check("faults_total", a.FaultsTotal-b.FaultsTotal, faults)
	check("errors_total", a.ErrorsTotal-b.ErrorsTotal, errs)
	check("screened_total", a.ScreenedTotal-b.ScreenedTotal, screened)
	check("screen_rejected_total", a.ScreenRejectedTotal-b.ScreenRejectedTotal, rejected)
	check("temporal_rejected_total", a.TemporalRejectedTotal-b.TemporalRejectedTotal, temporal)
	check("pool created+reused", a.Pool.Created+a.Pool.Reused-b.Pool.Created-b.Pool.Reused, served)
	check("pool quarantined", a.Pool.Quarantined-b.Pool.Quarantined, faults)
	check("pool rejected", a.Pool.Rejected-b.Pool.Rejected, 0)
}

// warmUp creates d.conns sessions for every scheme the workload uses — as
// many as its connections can ever lease at once, so the live session set
// does not depend on request timing — and then sends the workload's warm-up
// requests in order. It returns how many requests it sent and how many
// replies differed from the oracle.
func (d *daemon) warmUp(ctx context.Context, w *workload) (int, int, error) {
	p := d.srv.Pool()
	for _, sc := range w.schemes {
		var held []*pool.Session
		for i := 0; i < d.conns; i++ {
			s, err := p.AcquireFor(ctx, sc, "")
			if err != nil {
				return 0, 0, fmt.Errorf("warm-up lease: %w", err)
			}
			held = append(held, s)
		}
		for _, s := range held {
			p.Release(s)
		}
	}
	ph, err := d.closedLoop(ctx, w, w.warm, 0, 0)
	if err != nil {
		return 0, 0, err
	}
	return len(ph.results), ph.failures(w), nil
}
