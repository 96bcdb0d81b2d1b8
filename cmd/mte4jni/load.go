package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"math/rand"

	"mte4jni/internal/analysis"
	"mte4jni/internal/pool"
	"mte4jni/internal/redteam"
	"mte4jni/internal/report"
	"mte4jni/internal/server"
)

// runLoad is the concurrent load generator for `mte4jni serve`. It fires n
// requests at the daemon across c connections. Each request belongs to one
// traffic class (see classTable): the canned safe probe or a built-in
// workload by default, and on every k-th request an injected class — a
// known-bad inline program the admission screen must 422, a red-team
// temporal corpus program, a runaway the client abandons or the server's
// deadline cuts off, a red-team attack probe, or the deliberately-faulting
// OOB probe. Every reply is checked against its class, and the server
// counters the classes predict are reconciled against the change in the
// server's /metrics over the run. Any verdict mismatch, non-matching
// status, or metrics that do not add up makes it exit nonzero.
func runLoad(args []string) error {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	url := fs.String("url", "http://127.0.0.1:8321", "server base URL")
	n := fs.Int("n", 50, "total requests")
	c := fs.Int("c", 8, "concurrent workers")
	g, err := newLoadGen()
	if err != nil {
		return err
	}
	cfg := &g.cfg
	fs.StringVar(&cfg.scheme, "scheme", "sync", "protection scheme for every request (none, guarded, sync, async)")
	fs.StringVar(&cfg.workload, "workload", "", "run this built-in workload instead of the canned safe probe")
	fs.IntVar(&cfg.iters, "iters", 1, "workload iterations per request")
	fs.DurationVar(&cfg.cancelAfter, "cancel-after", 50*time.Millisecond, "how long a -cancel-rate request runs before the client disconnects")
	fs.IntVar(&cfg.delayThreshold, "attack-delay-threshold", 0, "mirror of the server's -attack-delay-threshold so the client replicates the escalation state machine for exact reconciliation")
	fs.IntVar(&cfg.quarantineThreshold, "attack-quarantine-threshold", 0, "mirror of the server's -attack-quarantine-threshold")
	for i := range g.rows {
		if r := &g.rows[i]; r.flag != "" {
			fs.IntVar(&r.every, r.flag, 0, r.usage)
		}
	}
	noReconcile := fs.Bool("no-reconcile", false, "skip the /metrics reconciliation (server is shared with other clients)")
	rate := fs.Float64("rate", 0, "open-loop arrival rate in req/s: requests launch on Poisson inter-arrival times regardless of completions, the queueing discipline real traffic applies (0 = closed loop over -c workers)")
	sloP99 := fs.Duration("slo-p99", 0, "fail (exit nonzero) when the run's p99 latency exceeds this budget (0 = no SLO gate)")
	reportFile := fs.String("report", "", "write a JSON report (throughput, HDR latency percentiles, SLO verdict) to this file")
	tenantCount := fs.Int("tenants", 0, "spread requests across K tenants (load-tenant-*) so the server's affinity router exercises every shard (0 = no tenant attribution)")
	expectShards := fs.Int("expect-shards", 0, "reconcile the per-shard /metrics ledgers against a server running -shards=N: shard leases must sum to created+reused exactly, sheds to rejected, and — with -tenants set — no shard may serve more than 2x the mean (tenants are picked shard-affine so uniform load is uniform by construction)")
	fs.Parse(args)
	scheme, err := server.ParseScheme(cfg.scheme)
	if err != nil {
		return err
	}
	// The attack probe is detected exactly when the scheme is an MTE one.
	cfg.mte = scheme.MTE()
	if *n <= 0 || *c <= 0 {
		return fmt.Errorf("load: -n and -c must be positive")
	}
	attackRate := g.rows[classAttack].every
	if *rate > 0 && attackRate > 0 {
		return fmt.Errorf("load: -rate (open loop) and -attack-rate (order-dependent escalation) cannot be combined")
	}
	if *expectShards < 0 || (*expectShards > 0 && *tenantCount > 0 && *tenantCount%*expectShards != 0) {
		return fmt.Errorf("load: -tenants must be a multiple of -expect-shards for an exactly uniform spread")
	}
	// The escalation state machine is sequential by nature — which probe
	// trips which tier depends on strict request order — so attack injection
	// demands a single worker.
	if attackRate > 0 && *c != 1 {
		return fmt.Errorf("load: -attack-rate requires -c 1 (escalation accounting is order-dependent)")
	}
	if g.tenants, err = loadTenants(*tenantCount, *expectShards, scheme.String()); err != nil {
		return err
	}

	client := &http.Client{Timeout: 60 * time.Second}

	// Snapshot the server counters up front: reconciliation compares the
	// *change* over this run, so it works against warm servers too.
	var before server.MetricsResponse
	if !*noReconcile {
		if err := getJSON(client, *url+"/metrics", &before); err != nil {
			return fmt.Errorf("load: fetching /metrics baseline: %w", err)
		}
	}

	outcomes := make([]outcome, *n)
	var wg sync.WaitGroup
	doRequest := func(i int) { outcomes[i] = g.fire(client, *url, i) }
	start := time.Now()
	if *rate > 0 {
		// Open loop: arrivals follow a Poisson process at -rate regardless
		// of completions — a slow server faces a growing backlog exactly as
		// it would behind real traffic, which is what makes the measured
		// percentiles honest SLO inputs (a closed loop slows its own
		// arrivals down when the server lags and flatters the tail).
		rng := rand.New(rand.NewSource(time.Now().UnixNano()))
		next := start
		for i := 0; i < *n; i++ {
			next = next.Add(time.Duration(rng.ExpFloat64() / *rate * float64(time.Second)))
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				doRequest(i)
			}(i)
		}
	} else {
		jobs := make(chan int)
		for w := 0; w < *c; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					doRequest(i)
				}
			}()
		}
		for i := 0; i < *n; i++ {
			jobs <- i
		}
		close(jobs)
	}
	wg.Wait()
	wall := time.Since(start)

	// Aggregate: per-class counts, the counter deltas the replies predict,
	// and the latency samples.
	var counts [numClasses]int
	var want, slack tally
	failed := 0
	lats := make([]time.Duration, 0, *n)
	var hist report.Histogram
	for i, o := range outcomes {
		if o.err != nil {
			failed++
			if failed <= 5 {
				fmt.Fprintf(os.Stderr, "load: request %d (%s): %v\n", i, g.rows[o.class].name, o.err)
			}
			continue
		}
		counts[o.class]++
		for k := range want {
			want[k] += o.bumped[k]
			slack[k] += o.maybe[k]
		}
		if o.sampled {
			lats = append(lats, o.latency)
			hist.Observe(o.latency)
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) time.Duration {
		return lats[int(p*float64(len(lats)-1))]
	}
	fmt.Printf("load: %d requests over %d workers in %v (%.0f req/s)\n",
		*n, *c, wall.Round(time.Millisecond), float64(*n)/wall.Seconds())
	var sent strings.Builder
	for cl, r := range g.rows {
		fmt.Fprintf(&sent, " %s=%d", r.name, counts[cl])
	}
	fmt.Printf("  sent:%s transport-errors=%d\n", sent.String(), failed)
	if len(lats) > 0 {
		fmt.Printf("  latency: p50=%v p95=%v p99=%v max=%v\n",
			pct(0.50).Round(time.Microsecond), pct(0.95).Round(time.Microsecond),
			pct(0.99).Round(time.Microsecond), lats[len(lats)-1].Round(time.Microsecond))
	}
	latRep := hist.Report()
	if *rate > 0 {
		fmt.Printf("  open-loop: target=%.0f req/s achieved=%.0f req/s hdr-p99=%v hdr-p999=%v\n",
			*rate, float64(*n)/wall.Seconds(),
			time.Duration(latRep.P99NS).Round(time.Microsecond),
			time.Duration(latRep.P999NS).Round(time.Microsecond))
	}
	if *reportFile != "" {
		rep := loadReport{
			Requests:        *n,
			Workers:         *c,
			OpenLoop:        *rate > 0,
			RateTargetRPS:   *rate,
			RateAchievedRPS: float64(*n) / wall.Seconds(),
			WallNS:          wall.Nanoseconds(),
			OK:              counts[classDefault],
			Faulted:         counts[classFault],
			Rejected:        int(want[ctrScreenRejected]),
			Canceled:        counts[classCancel],
			Deadlined:       counts[classDeadline],
			TransportErrors: failed,
			Latency:         latRep,
		}
		if *sloP99 > 0 {
			rep.SLOP99NS = sloP99.Nanoseconds()
			met := time.Duration(latRep.P99NS) <= *sloP99
			rep.SLOP99Met = &met
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*reportFile, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("load: writing report: %w", err)
		}
	}

	if failed > 0 {
		return fmt.Errorf("load: %d requests failed at the transport/HTTP layer", failed)
	}

	if !*noReconcile {
		// A client-side disconnect is observed by the server asynchronously:
		// the interpreter notices on its next cancellation poll, counts the
		// abort, and releases the lease *after* the client has already moved
		// on. Poll until the abort counters and the lease ledger settle
		// before comparing deltas.
		var after server.MetricsResponse
		settleBy := time.Now().Add(15 * time.Second)
		for {
			if err := getJSON(client, *url+"/metrics", &after); err != nil {
				return fmt.Errorf("load: fetching /metrics: %w", err)
			}
			settled := after.CanceledTotal-before.CanceledTotal >= want[ctrCanceled] &&
				after.Pool.Leased == 0
			if settled || time.Now().After(settleBy) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if err := reconcile(&before, &after, want, slack); err != nil {
			return err
		}
		if after.Pool.Leased != 0 {
			return fmt.Errorf("load: %d leases still outstanding after drain: leaked lease", after.Pool.Leased)
		}
		// All but the first (cold) screening of each distinct program must
		// be verdict-cache hits.
		dScreened := after.ScreenedTotal - before.ScreenedTotal
		dCacheHits := after.ScreenCacheHits - before.ScreenCacheHits
		distinct := 0
		if want[ctrScreenRejected] > 0 {
			distinct += len(g.badProgs)
		}
		if counts[classCancel]+counts[classDeadline] > 0 {
			distinct++ // the spin program
		}
		if flagged := int(want[ctrTemporalFlagged]); flagged > 0 {
			distinct += min(flagged, len(g.temporal))
		}
		if dScreened > 0 && dCacheHits+uint64(distinct) < dScreened {
			return fmt.Errorf("load: screen cache ineffective: +%d hits for %d screenings over %d distinct programs",
				dCacheHits, dScreened, distinct)
		}
		if *expectShards > 0 {
			// With no aborts or refusals in flight every served request is
			// exactly one shard lease.
			exact := counts[classCancel] == 0 && counts[classDeadline] == 0 &&
				want[ctrAttackProbes] == uint64(counts[classAttack])
			if err := reconcileShards(&before, &after, *expectShards, *tenantCount > 0, exact); err != nil {
				return err
			}
		}
	}
	// The SLO gate reads the HDR histogram's conservative p99 (bucket upper
	// bound), so a borderline run fails rather than squeaking by.
	if *sloP99 > 0 {
		if p99 := time.Duration(latRep.P99NS); p99 > *sloP99 {
			return fmt.Errorf("load: p99 SLO violated: %v against a %v budget", p99, *sloP99)
		}
		fmt.Printf("  slo: p99=%v within the %v budget\n", time.Duration(latRep.P99NS), *sloP99)
	}
	return nil
}

// class indexes the traffic-class table. The order is the injection
// precedence: when several rates select the same request, the earliest
// class wins, and a request no rate selects is classDefault.
type class int

const (
	classReject class = iota
	classTemporal
	classCancel
	classDeadline
	classAttack
	classFault
	classDefault
	numClasses
)

// trafficClass is one row of the load table: its rate flag, how to build
// its requests, the reply it expects, and the server counters that reply
// bumps.
type trafficClass struct {
	name string
	// flag and usage declare the rate flag; every is its value: every k-th
	// request (1-based) is of this class (0 = never). The default row has
	// no flag and takes whatever no rate claims.
	flag, usage string
	every       int
	// build makes request i, the ord-th (0-based) of its class. A request
	// without a scheme runs under -scheme.
	build func(i, ord int) server.RunRequest
	// abandon makes the client walk away after -cancel-after instead of
	// reading a reply; the only success is the disconnect itself.
	abandon bool
	// status is the HTTP status the reply must carry (0: expect decides).
	status int
	// expect checks the decoded reply beyond its status and returns the
	// counters it bumped on top of bumps.
	expect func(ord, status int, rep *reply) ([]counter, error)
	// bumps are the counters every passing request of the class moves by
	// one; maybe are those it may or may not move (a disconnect can land
	// before or after the server counts the request).
	bumps, maybe []counter
}

// loadConfig is the non-rate flag state the rows read.
type loadConfig struct {
	scheme      string
	mte         bool // the scheme is an MTE one: the attack probe is detected
	workload    string
	iters       int
	cancelAfter time.Duration
	// delayThreshold and quarantineThreshold mirror the server's escalation
	// thresholds for the attack row's replica of the defense ladder.
	delayThreshold, quarantineThreshold int
}

// loadGen is the traffic-class table together with the corpora its rows
// draw from.
type loadGen struct {
	cfg      loadConfig
	rows     [numClasses]trafficClass
	badProgs [][]byte        // the reject corpus, round-robined by request index
	temporal []temporalEntry // the temporal corpus, round-robined by ordinal
	spin     []byte          // the runaway for cancel and deadline injection
	tenants  []string        // round-robin tenant attribution (empty: none)
	// attackFaults is the client's replica of the server's per-tenant
	// fault count for tenant "redteam". -attack-rate forces a single
	// worker, so plain state is race-free.
	attackFaults int
}

// temporalEntry is one red-team corpus program the load generator submits
// under its risky scheme, with the temporal verdict it holds the server to.
type temporalEntry struct {
	raw          []byte
	scheme       string
	class        analysis.WindowClass
	policyReject bool
}

// reply is a decoded /run answer: the run fields of a 200/504, or the
// error and screen verdict of a 422.
type reply struct {
	server.RunResponse
	Verdict *analysis.ScreenVerdict `json:"verdict"`
}

// newLoadGen marshals the corpora and builds the class table.
func newLoadGen() (*loadGen, error) {
	g := &loadGen{}
	for _, name := range pool.BadProgramNames {
		raw, err := analysis.MarshalProgram(pool.BadProgram(name))
		if err != nil {
			return nil, fmt.Errorf("load: marshal %s: %w", name, err)
		}
		g.badProgs = append(g.badProgs, raw)
	}
	// The temporal corpus: four red-team attack shapes as inline programs,
	// each submitted under the scheme whose checker is exposed to it. Three
	// are provable faults the admission screen 422s (temporal findings riding
	// along in the verdict); the lost update is admitted by the fault screen
	// and rejected by the temporal policy — the server must run with the
	// default -temporal-policy reject for the script to hold.
	byName := make(map[string]redteam.CorpusProgram)
	for _, cp := range redteam.CorpusPrograms() {
		byName[cp.Name] = cp
	}
	for _, name := range []string{
		"async-window/damage", "gc-race/scan-window",
		"guardedcopy/oob-read", "guardedcopy/lost-update",
	} {
		cp, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("load: temporal corpus missing %s", name)
		}
		raw, err := analysis.MarshalProgram(cp.Program)
		if err != nil {
			return nil, fmt.Errorf("load: marshal %s: %w", name, err)
		}
		g.temporal = append(g.temporal, temporalEntry{
			raw: raw, scheme: cp.Scheme, class: cp.WantClass,
			policyReject: name == "guardedcopy/lost-update",
		})
	}
	// The runaway probe for cancel/deadline injection: a pure countdown loop
	// the admission screen admits but no sane budget lets finish.
	spin, err := analysis.MarshalProgram(pool.SpinProgram(1 << 40))
	if err != nil {
		return nil, fmt.Errorf("load: marshal spin program: %w", err)
	}
	g.spin = spin
	g.rows = g.classTable()
	return g, nil
}

// classTable is the load generator's traffic, one row per class, in
// injection-precedence order.
func (g *loadGen) classTable() [numClasses]trafficClass {
	spin := func(_, _ int) server.RunRequest { return server.RunRequest{Program: g.spin} }
	return [numClasses]trafficClass{
		classReject: {
			name: "reject", flag: "reject-rate",
			usage:  "make every k-th request a known-bad inline program the admission screen must reject with 422 (0 = never; wins over -fault-every)",
			build:  func(i, _ int) server.RunRequest { return server.RunRequest{Program: g.badProgs[i%len(g.badProgs)]} },
			status: http.StatusUnprocessableEntity,
			expect: func(_, _ int, rep *reply) ([]counter, error) {
				v := rep.Verdict
				if v == nil || !v.Rejected() || v.PC < 0 || v.Native == "" || len(v.Provenance) == 0 {
					return nil, fmt.Errorf("422 without a structured verdict: %q %+v", rep.Error, v)
				}
				return nil, nil
			},
			bumps: []counter{ctrScreened, ctrScreenRejected},
		},
		classTemporal: {
			name: "temporal", flag: "temporal-rate",
			usage: "make every k-th request a red-team corpus program under its risky scheme, which the temporal screen must flag — and, for the policy-rejected shapes, 422 with the provenance chain (0 = never)",
			build: func(_, ord int) server.RunRequest {
				te := g.temporal[ord%len(g.temporal)]
				return server.RunRequest{Scheme: te.scheme, Program: te.raw}
			},
			status: http.StatusUnprocessableEntity,
			expect: func(ord, _ int, rep *reply) ([]counter, error) {
				return expectTemporal(g.temporal[ord%len(g.temporal)], rep.Verdict)
			},
			bumps: []counter{ctrScreened},
		},
		classCancel: {
			name: "cancel", flag: "cancel-rate",
			usage:   "make every k-th request a runaway spin program whose connection the client abandons after -cancel-after (0 = never; the server must count it canceled_total and recycle the lease)",
			build:   spin,
			abandon: true,
			bumps:   []counter{ctrCanceled},
			maybe:   []counter{ctrRequests, ctrScreened, ctrCanceledLeases},
		},
		classDeadline: {
			name: "deadline", flag: "deadline-rate",
			usage:  "make every k-th request a runaway spin program the server's -run-timeout must cut off with 504 (0 = never)",
			build:  spin,
			status: http.StatusGatewayTimeout,
			expect: func(_, _ int, rep *reply) ([]counter, error) {
				if rep.Abort != "deadline_exceeded" {
					return nil, fmt.Errorf("runaway not cut off by -run-timeout: abort=%q (is the server running with -run-timeout?)", rep.Abort)
				}
				return nil, nil
			},
			bumps: []counter{ctrRequests, ctrScreened, ctrDeadline},
			maybe: []counter{ctrCanceledLeases},
		},
		classAttack: {
			name: "attack", flag: "attack-rate",
			usage: "make every k-th request the canned red-team attack probe as tenant \"redteam\" (0 = never; requires -c 1)",
			build: func(_, _ int) server.RunRequest {
				return server.RunRequest{Canned: "attack", Tenant: "redteam"}
			},
			expect: g.expectAttack,
		},
		classFault: {
			name: "oob", flag: "fault-every",
			usage:  "make every k-th request the deliberately-faulting OOB probe (0 = never)",
			build:  func(_, _ int) server.RunRequest { return server.RunRequest{Canned: "oob"} },
			status: http.StatusOK,
			expect: func(_, _ int, rep *reply) ([]counter, error) {
				if rep.Fault == nil {
					return nil, fmt.Errorf("injected fault came back clean (session %s)", rep.Session)
				}
				return nil, nil
			},
			bumps: []counter{ctrRequests, ctrFaults, ctrQuarantined},
		},
		classDefault: {
			name: "default",
			build: func(_, _ int) server.RunRequest {
				if g.cfg.workload != "" {
					return server.RunRequest{Workload: g.cfg.workload, Iterations: g.cfg.iters}
				}
				return server.RunRequest{Canned: "safe"}
			},
			status: http.StatusOK,
			expect: func(_, _ int, rep *reply) ([]counter, error) {
				if rep.Fault != nil {
					return nil, fmt.Errorf("unexpected fault on session %s: %s", rep.Session, rep.Fault.Signature)
				}
				if rep.Error != "" {
					return nil, fmt.Errorf("session %s: %s", rep.Session, rep.Error)
				}
				// The canned safe probe is screened VerdictSafe, so its proofs
				// must have compiled into at least one guard-free site; a fully
				// checked safe run means the elision pipeline fell apart.
				if g.cfg.workload == "" && rep.ElidedSites == 0 {
					return nil, fmt.Errorf("session %s: safe probe ran fully checked: no elided sites in response", rep.Session)
				}
				if g.cfg.workload == "" && rep.ElisionInvalidated {
					return nil, fmt.Errorf("session %s: safe probe's elision proofs were invalidated mid-run", rep.Session)
				}
				return nil, nil
			},
			bumps: []counter{ctrRequests},
		},
	}
}

// expectTemporal requires a temporal corpus 422 to carry the evidence: a
// finding of the expected window class with the full alloc → acquire →
// interfering-write → late-check provenance chain. The provably-faulting
// shapes ride the ordinary screen rejection; the policy-rejected shape must
// come back with a clean fault verdict and the temporal policy as the sole
// reason.
func expectTemporal(te temporalEntry, v *analysis.ScreenVerdict) ([]counter, error) {
	if v == nil || len(v.Temporal) == 0 {
		return nil, fmt.Errorf("422 without temporal findings (%s under %s)", te.class, te.scheme)
	}
	f := v.Temporal[0]
	if f.Class != te.class {
		return nil, fmt.Errorf("temporal class %q, want %q", f.Class, te.class)
	}
	if len(f.Chain) != 4 {
		return nil, fmt.Errorf("provenance chain has %d steps, want the full 4: %q", len(f.Chain), f.Chain.String())
	}
	if te.policyReject {
		if v.Rejected() {
			return nil, fmt.Errorf("policy-reject shape %q came back as a fault verdict", te.class)
		}
		return []counter{ctrTemporalRejected}, nil
	}
	if !v.Rejected() {
		return nil, fmt.Errorf("provably-faulting shape %q not rejected by the fault screen", te.class)
	}
	return []counter{ctrScreenRejected}, nil
}

// expectAttack holds one attack probe to the client's replica of the
// server's escalation ladder: the tier in force at admission follows from
// the detected-fault count so far. A quarantined tenant gets exactly 429
// and never becomes a request; an admitted probe gets 200 with a fault
// verdict matching the scheme (detected under MTE, landed silently
// otherwise), pays the delay tier once the count reaches its threshold,
// and each threshold the count reaches is one tier crossing (a reseed).
func (g *loadGen) expectAttack(_, status int, rep *reply) ([]counter, error) {
	delay, quar := g.cfg.delayThreshold, g.cfg.quarantineThreshold
	if quar > 0 && g.attackFaults >= quar {
		if status != http.StatusTooManyRequests {
			return nil, fmt.Errorf("quarantined tenant not refused: status %d, want 429", status)
		}
		return nil, nil
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("attack probe: status %d", status)
	}
	bumps := []counter{ctrRequests, ctrAttackProbes}
	if delay > 0 && g.attackFaults >= delay {
		bumps = append(bumps, ctrThrottled)
	}
	detected := rep.Fault != nil
	if detected != g.cfg.mte {
		return nil, fmt.Errorf("attack probe verdict off on session %s: detected=%v, scheme predicts %v",
			rep.Session, detected, g.cfg.mte)
	}
	if !detected {
		return bumps, nil
	}
	g.attackFaults++
	bumps = append(bumps, ctrFaults, ctrQuarantined, ctrDetections)
	// The delay tier is only ever entered when its threshold sits below the
	// quarantine threshold (otherwise the tenant jumps straight to
	// quarantine in a single crossing).
	if g.attackFaults == delay && (quar == 0 || delay < quar) {
		bumps = append(bumps, ctrReseeds)
	}
	if g.attackFaults == quar {
		bumps = append(bumps, ctrReseeds, ctrTenantsQuarantined)
	}
	return bumps, nil
}

// pick returns request i's class — the first row whose rate selects it —
// and its ordinal within that class.
func (g *loadGen) pick(i int) (class, int) {
	for cl, r := range g.rows {
		if r.every > 0 && (i+1)%r.every == 0 {
			return class(cl), (i+1)/r.every - 1
		}
	}
	return classDefault, i
}

// outcome is one request's client-side verdict.
type outcome struct {
	class   class
	latency time.Duration
	// sampled marks a reply that is a latency sample: an abandoned
	// connection has no reply, and a 429 never became a request.
	sampled       bool
	bumped, maybe tally
	err           error
}

// fire builds request i, sends it, and checks the reply against its row.
func (g *loadGen) fire(client *http.Client, base string, i int) outcome {
	cl, ord := g.pick(i)
	r := &g.rows[cl]
	req := r.build(i, ord)
	if req.Scheme == "" {
		req.Scheme = g.cfg.scheme
	}
	// Attribute the request to its round-robin tenant so the server's
	// affinity router spreads the run across shards; the attack probe keeps
	// its fixed red-team identity.
	if req.Tenant == "" && len(g.tenants) > 0 {
		req.Tenant = g.tenants[i%len(g.tenants)]
	}
	o := outcome{class: cl}
	var abandon time.Duration
	if r.abandon {
		abandon = g.cfg.cancelAfter
	}
	status, rep, err := send(client, base, req, abandon, &o.latency)
	if err != nil {
		o.err = err
		return o
	}
	var extra []counter
	if rep != nil {
		if r.status != 0 && status != r.status {
			o.err = fmt.Errorf("status %d, want %d", status, r.status)
			return o
		}
		if extra, o.err = r.expect(ord, status, rep); o.err != nil {
			return o
		}
		o.sampled = status != http.StatusTooManyRequests
		o.bumped.observe(rep)
	}
	for _, k := range r.bumps {
		o.bumped[k]++
	}
	for _, k := range extra {
		o.bumped[k]++
	}
	for _, k := range r.maybe {
		o.maybe[k]++
	}
	return o
}

// send is the one place a /run request goes out: marshal, POST, timing and
// decode. With abandon > 0 the client walks away after that long, the way a
// disconnecting caller does; success is then the client-side context error
// and no reply, while a reply means the runaway finished before the
// disconnect and no cancel was injected.
func send(client *http.Client, base string, req server.RunRequest, abandon time.Duration, latency *time.Duration) (int, *reply, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, nil, err
	}
	ctx := context.Background()
	if abandon > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, abandon)
		defer cancel()
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/run", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := client.Do(hreq)
	*latency = time.Since(start)
	if err != nil {
		if abandon > 0 {
			return 0, nil, nil
		}
		return 0, nil, err
	}
	defer resp.Body.Close()
	if abandon > 0 {
		return 0, nil, fmt.Errorf("abandoned runaway completed before the disconnect (status %d): cancel not injected", resp.StatusCode)
	}
	rep := new(reply)
	if err := json.NewDecoder(resp.Body).Decode(rep); err != nil {
		return 0, nil, fmt.Errorf("decoding response (status %d): %w", resp.StatusCode, err)
	}
	return resp.StatusCode, rep, nil
}

// counter indexes the /metrics counters the run reconciles.
type counter int

const (
	ctrRequests counter = iota
	ctrFaults
	ctrQuarantined
	ctrErrors
	ctrScreened
	ctrScreenRejected
	ctrTemporalFlagged
	ctrWindowRisk
	ctrScanRace
	ctrBlindSpot
	ctrTemporalRejected
	ctrCanceled
	ctrDeadline
	ctrCanceledLeases
	ctrElided
	ctrInvalidated
	ctrAttackProbes
	ctrDetections
	ctrThrottled
	ctrReseeds
	ctrTenantsQuarantined
	numCounters
)

// counters names each reconciled counter and reads it off a snapshot.
var counters = [numCounters]struct {
	name string
	read func(m *server.MetricsResponse) uint64
}{
	ctrRequests:           {"requests_total", func(m *server.MetricsResponse) uint64 { return m.RequestsTotal }},
	ctrFaults:             {"faults_total", func(m *server.MetricsResponse) uint64 { return m.FaultsTotal }},
	ctrQuarantined:        {"quarantined", func(m *server.MetricsResponse) uint64 { return m.Pool.Quarantined }},
	ctrErrors:             {"errors_total", func(m *server.MetricsResponse) uint64 { return m.ErrorsTotal }},
	ctrScreened:           {"screened_total", func(m *server.MetricsResponse) uint64 { return m.ScreenedTotal }},
	ctrScreenRejected:     {"screen_rejected_total", func(m *server.MetricsResponse) uint64 { return m.ScreenRejectedTotal }},
	ctrTemporalFlagged:    {"temporal_flagged_total", func(m *server.MetricsResponse) uint64 { return m.TemporalFlaggedTotal }},
	ctrWindowRisk:         {"temporal_window_risk_total", func(m *server.MetricsResponse) uint64 { return m.TemporalWindowRisk }},
	ctrScanRace:           {"temporal_scan_race_total", func(m *server.MetricsResponse) uint64 { return m.TemporalScanRace }},
	ctrBlindSpot:          {"temporal_guardedcopy_blindspot_total", func(m *server.MetricsResponse) uint64 { return m.TemporalBlindSpot }},
	ctrTemporalRejected:   {"temporal_rejected_total", func(m *server.MetricsResponse) uint64 { return m.TemporalRejectedTotal }},
	ctrCanceled:           {"canceled_total", func(m *server.MetricsResponse) uint64 { return m.CanceledTotal }},
	ctrDeadline:           {"deadline_exceeded_total", func(m *server.MetricsResponse) uint64 { return m.DeadlineExceededTotal }},
	ctrCanceledLeases:     {"canceled_leases", func(m *server.MetricsResponse) uint64 { return m.Pool.CanceledLeases }},
	ctrElided:             {"elided_sites_total", func(m *server.MetricsResponse) uint64 { return m.ElidedSitesTotal }},
	ctrInvalidated:        {"elision_invalidated_total", func(m *server.MetricsResponse) uint64 { return m.ElisionInvalidatedTotal }},
	ctrAttackProbes:       {"attack_probes_total", func(m *server.MetricsResponse) uint64 { return m.AttackProbesTotal }},
	ctrDetections:         {"detections_total", func(m *server.MetricsResponse) uint64 { return m.DetectionsTotal }},
	ctrThrottled:          {"throttled_total", func(m *server.MetricsResponse) uint64 { return m.Pool.ThrottledTotal }},
	ctrReseeds:            {"reseeds_total", func(m *server.MetricsResponse) uint64 { return m.Pool.ReseedsTotal }},
	ctrTenantsQuarantined: {"tenants_quarantined_total", func(m *server.MetricsResponse) uint64 { return m.Pool.TenantsQuarantined }},
}

// tally holds one count per reconciled counter.
type tally [numCounters]uint64

// observe adds what the server credits from the reply itself: the
// guard-free sites and proof invalidation of a run, and the distinct
// temporal window classes of a screen verdict (the server's per-verdict set
// semantics).
func (t *tally) observe(rep *reply) {
	t[ctrElided] += uint64(rep.ElidedSites)
	if rep.ElisionInvalidated {
		t[ctrInvalidated]++
	}
	if rep.Verdict == nil || len(rep.Verdict.Temporal) == 0 {
		return
	}
	t[ctrTemporalFlagged]++
	seen := make(map[analysis.WindowClass]bool)
	for _, f := range rep.Verdict.Temporal {
		if seen[f.Class] {
			continue
		}
		seen[f.Class] = true
		switch f.Class {
		case analysis.WindowRisk:
			t[ctrWindowRisk]++
		case analysis.WindowScanRace:
			t[ctrScanRace]++
		case analysis.WindowGuardedCopyBlindSpot:
			t[ctrBlindSpot]++
		}
	}
}

// reconcile requires every counter's change over the run to lie in
// [want, want+slack]. Slack comes only from abandoned connections, so every
// counter is exact on a run without cancels: aborts never double as errors,
// every guard-free site the server credited came back in a reply, a proof
// invalidation is never absorbed, a screened-out program never becomes a
// request, and the escalation counters follow the client's replica of the
// defense ladder.
func reconcile(before, after *server.MetricsResponse, want, slack tally) error {
	var line strings.Builder
	var errs []string
	for k, ctr := range counters {
		d := ctr.read(after) - ctr.read(before)
		lo, hi := want[k], want[k]+slack[k]
		if d != 0 || hi != 0 {
			fmt.Fprintf(&line, " +%s=%d", ctr.name, d)
		}
		if d < lo || d > hi {
			span := fmt.Sprint(lo)
			if hi != lo {
				span = fmt.Sprintf("%d..%d", lo, hi)
			}
			errs = append(errs, fmt.Sprintf("%s moved +%d, client expected +%s", ctr.name, d, span))
		}
	}
	fmt.Printf("  server:%s\n", line.String())
	if len(errs) > 0 {
		return fmt.Errorf("load: metrics do not reconcile: %s", strings.Join(errs, "; "))
	}
	return nil
}

// reconcileShards checks the per-shard ledgers. The pool accounts every
// lease to exactly one shard's tokens (shard_leases_total moves only where
// created/reused moves), so the shard sums must reproduce the pool-level
// counters to the unit, and — when exact — match the served request count.
// Shedding is decided at a shard's queue, so shard_shed_total sums to the
// pool's rejected.
func reconcileShards(before, after *server.MetricsResponse, shards int, balanced, exact bool) error {
	sh := after.Pool.Shards
	if len(sh) != shards {
		return fmt.Errorf("load: server reports %d shards, -expect-shards %d", len(sh), shards)
	}
	var dLeases, dSteals, dShed, dCreated, dReused, maxLeases uint64
	leaseDeltas := make([]uint64, len(sh))
	for i, a := range sh {
		var b pool.ShardStats
		if i < len(before.Pool.Shards) {
			b = before.Pool.Shards[i]
		}
		if a.Leased != 0 || a.Waiters != 0 {
			return fmt.Errorf("load: shard %d not drained: leased=%d waiters=%d", i, a.Leased, a.Waiters)
		}
		leaseDeltas[i] = a.Leases - b.Leases
		dLeases += leaseDeltas[i]
		dSteals += a.Steals - b.Steals
		dShed += a.Shed - b.Shed
		dCreated += a.Created - b.Created
		dReused += a.Reused - b.Reused
		maxLeases = max(maxLeases, leaseDeltas[i])
	}
	fmt.Printf("  shards: leases=%v steals=%d shed=%d (created+reused=%d)\n",
		leaseDeltas, dSteals, dShed, dCreated+dReused)
	if dLeases != dCreated+dReused {
		return fmt.Errorf("load: shard lease ledger off: shards sum +%d leases, pool counted +%d created and +%d reused", dLeases, dCreated, dReused)
	}
	if dPoolRejected := after.Pool.Rejected - before.Pool.Rejected; dShed != dPoolRejected {
		return fmt.Errorf("load: shard shed ledger off: shards sum +%d, pool rejected +%d", dShed, dPoolRejected)
	}
	if dRequests := after.RequestsTotal - before.RequestsTotal; exact && dLeases != dRequests {
		return fmt.Errorf("load: +%d shard leases for +%d served requests", dLeases, dRequests)
	}
	// Balance: the affine tenant spread puts the same number of tenants on
	// every shard, so uniform traffic must spread within 2x of the mean —
	// skew here means routing or stealing is hoarding leases on one shard.
	if balanced {
		mean := float64(dLeases) / float64(len(sh))
		if mean > 0 && float64(maxLeases) > 2*mean {
			return fmt.Errorf("load: shard imbalance: max +%d leases against mean %.1f (uniform affine load must stay within 2x)", maxLeases, mean)
		}
	}
	return nil
}

// loadTenants names count tenants, round-robined over the requests. With
// shards > 0 the names are picked shard-affine — probe the shared affinity
// hash (the same FNV the server routes with) until count/shards tenants
// home on each shard — so a uniform request spread is a uniform shard
// spread by construction, and the 2x-mean balance check cannot be failed
// by hash luck.
func loadTenants(count, shards int, scheme string) ([]string, error) {
	var names []string
	if shards <= 0 {
		for i := 0; i < count; i++ {
			names = append(names, fmt.Sprintf("load-tenant-%d", i))
		}
		return names, nil
	}
	for shard := 0; shard < shards && count > 0; shard++ {
		need := count / shards
		for probe := 0; need > 0; probe++ {
			name := fmt.Sprintf("load-tenant-%d", probe)
			if int(pool.AffinityKey(name, scheme)%uint64(shards)) == shard {
				names = append(names, name)
				need--
			}
			if probe > 1<<20 {
				return nil, fmt.Errorf("load: no tenant name hashes to shard %d", shard)
			}
		}
	}
	return names, nil
}

// loadReport is the -report JSON artifact: the run's shape, throughput and
// HDR latency summary, plus the SLO verdict when a budget was set.
type loadReport struct {
	Requests        int                  `json:"requests"`
	Workers         int                  `json:"workers"`
	OpenLoop        bool                 `json:"open_loop"`
	RateTargetRPS   float64              `json:"rate_target_rps,omitempty"`
	RateAchievedRPS float64              `json:"rate_achieved_rps"`
	WallNS          int64                `json:"wall_ns"`
	OK              int                  `json:"ok"`
	Faulted         int                  `json:"faulted"`
	Rejected        int                  `json:"rejected"`
	Canceled        int                  `json:"canceled"`
	Deadlined       int                  `json:"deadlined"`
	TransportErrors int                  `json:"transport_errors"`
	Latency         report.LatencyReport `json:"latency"`
	SLOP99NS        int64                `json:"slo_p99_ns,omitempty"`
	SLOP99Met       *bool                `json:"slo_p99_met,omitempty"`
}

func getJSON(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
