package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mte4jni/internal/analysis"
	"mte4jni/internal/report"
	"mte4jni/internal/server"
)

// faultVerdict is a structured screen rejection as the server sends it.
func faultVerdict(temporal ...analysis.TemporalFinding) *analysis.ScreenVerdict {
	return &analysis.ScreenVerdict{
		Verdict: analysis.VerdictFault, PC: 3, Native: "n",
		Provenance: analysis.ProvChain{{PC: 1}, {PC: 3}}, Temporal: temporal,
	}
}

// finding is a temporal finding with a chain of the given length.
func finding(class analysis.WindowClass, steps int) analysis.TemporalFinding {
	return analysis.TemporalFinding{Class: class, Chain: make(analysis.ProvChain, steps)}
}

// Every class row must turn a reply that contradicts its class into an
// error, and count the right reply into exactly the counters it bumps.
// Each case fires one request of its class (ord i) at a stub server that
// answers with status and body.
func TestClassRowsCheckReplies(t *testing.T) {
	fault := &report.FaultRecord{Session: "s1"}
	safeVerdict := &analysis.ScreenVerdict{
		Verdict: analysis.VerdictSafe, PC: -1,
		Temporal: []analysis.TemporalFinding{finding(analysis.WindowGuardedCopyBlindSpot, 4)},
	}
	cases := []struct {
		name   string
		class  class
		i      int // request index; with only the row's rate set to 1 it is the ord
		quar   int // -attack-quarantine-threshold
		faults int // detections the attack replica has already seen
		status int
		body   any
		stall  bool // hold the reply until the client disconnects
		want   []counter
		maybe  []counter
		bad    string // substring of the expected error; empty: must pass
	}{
		{name: "reject/right", class: classReject, status: 422,
			body: server.RejectResponse{Error: "x", Verdict: faultVerdict()},
			want: []counter{ctrScreened, ctrScreenRejected}},
		{name: "reject/200", class: classReject, status: 200,
			body: server.RunResponse{OK: true}, bad: "status 200, want 422"},
		{name: "reject/no-provenance", class: classReject, status: 422,
			body: server.RejectResponse{Verdict: &analysis.ScreenVerdict{Verdict: analysis.VerdictFault, PC: 3, Native: "n"}},
			bad:  "without a structured verdict"},

		// ord 0 is async-window/damage (a provable fault), ord 3 the
		// guardedcopy lost update (a temporal-policy rejection).
		{name: "temporal/fault-right", class: classTemporal, i: 0, status: 422,
			body: server.RejectResponse{Verdict: faultVerdict(finding(analysis.WindowRisk, 4))},
			want: []counter{ctrScreened, ctrScreenRejected, ctrTemporalFlagged, ctrWindowRisk}},
		{name: "temporal/policy-right", class: classTemporal, i: 3, status: 422,
			body: server.RejectResponse{Verdict: safeVerdict},
			want: []counter{ctrScreened, ctrTemporalRejected, ctrTemporalFlagged, ctrBlindSpot}},
		{name: "temporal/200", class: classTemporal, i: 0, status: 200,
			body: server.RunResponse{OK: true}, bad: "status 200, want 422"},
		{name: "temporal/no-chain", class: classTemporal, i: 0, status: 422,
			body: server.RejectResponse{Verdict: faultVerdict(finding(analysis.WindowRisk, 2))},
			bad:  "want the full 4"},
		{name: "temporal/no-findings", class: classTemporal, i: 0, status: 422,
			body: server.RejectResponse{Verdict: faultVerdict()}, bad: "without temporal findings"},
		{name: "temporal/wrong-class", class: classTemporal, i: 0, status: 422,
			body: server.RejectResponse{Verdict: faultVerdict(finding(analysis.WindowScanRace, 4))},
			bad:  "temporal class"},
		{name: "temporal/policy-as-fault", class: classTemporal, i: 3, status: 422,
			body: server.RejectResponse{Verdict: faultVerdict(finding(analysis.WindowGuardedCopyBlindSpot, 4))},
			bad:  "came back as a fault verdict"},

		{name: "cancel/right", class: classCancel, stall: true,
			want: []counter{ctrCanceled}, maybe: []counter{ctrRequests, ctrScreened, ctrCanceledLeases}},
		{name: "cancel/completed", class: classCancel, status: 200,
			body: server.RunResponse{OK: true}, bad: "completed before the disconnect"},

		{name: "deadline/right", class: classDeadline, status: 504,
			body: server.RunResponse{Abort: "deadline_exceeded"},
			want: []counter{ctrRequests, ctrScreened, ctrDeadline}, maybe: []counter{ctrCanceledLeases}},
		{name: "deadline/200", class: classDeadline, status: 200,
			body: server.RunResponse{OK: true}, bad: "status 200, want 504"},
		{name: "deadline/no-abort", class: classDeadline, status: 504,
			body: server.RunResponse{}, bad: "not cut off by -run-timeout"},

		{name: "attack/detected", class: classAttack, status: 200,
			body: server.RunResponse{Fault: fault},
			want: []counter{ctrRequests, ctrAttackProbes, ctrFaults, ctrQuarantined, ctrDetections}},
		{name: "attack/quarantine-crossing", class: classAttack, quar: 2, faults: 1, status: 200,
			body: server.RunResponse{Fault: fault},
			want: []counter{ctrRequests, ctrAttackProbes, ctrFaults, ctrQuarantined, ctrDetections,
				ctrReseeds, ctrTenantsQuarantined}},
		{name: "attack/refused", class: classAttack, quar: 1, faults: 1, status: 429,
			body: map[string]string{"error": "tenant quarantined"}},
		{name: "attack/missed", class: classAttack, status: 200,
			body: server.RunResponse{OK: true}, bad: "verdict off"},
		{name: "attack/not-refused", class: classAttack, quar: 1, faults: 1, status: 200,
			body: server.RunResponse{Fault: fault}, bad: "not refused"},

		{name: "oob/right", class: classFault, status: 200,
			body: server.RunResponse{Fault: fault},
			want: []counter{ctrRequests, ctrFaults, ctrQuarantined}},
		{name: "oob/clean", class: classFault, status: 200,
			body: server.RunResponse{OK: true, ElidedSites: 1}, bad: "came back clean"},
		{name: "oob/503", class: classFault, status: 503,
			body: map[string]string{"error": "overloaded"}, bad: "status 503, want 200"},

		{name: "default/right", class: classDefault, status: 200,
			body: server.RunResponse{OK: true, ElidedSites: 1},
			want: []counter{ctrRequests, ctrElided}},
		{name: "default/fault", class: classDefault, status: 200,
			body: server.RunResponse{Fault: fault, ElidedSites: 1}, bad: "unexpected fault"},
		{name: "default/error", class: classDefault, status: 200,
			body: server.RunResponse{Error: "boom", ElidedSites: 1}, bad: "boom"},
		{name: "default/fully-checked", class: classDefault, status: 200,
			body: server.RunResponse{OK: true}, bad: "ran fully checked"},
		{name: "default/invalidated", class: classDefault, status: 200,
			body: server.RunResponse{OK: true, ElidedSites: 1, ElisionInvalidated: true}, bad: "invalidated mid-run"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				// Drain the body so the server notices a disconnect.
				_, _ = io.Copy(io.Discard, r.Body)
				if tc.stall {
					select {
					case <-r.Context().Done():
					case <-time.After(5 * time.Second):
					}
					return
				}
				w.WriteHeader(tc.status)
				_ = json.NewEncoder(w).Encode(tc.body)
			}))
			defer ts.Close()
			g, err := newLoadGen()
			if err != nil {
				t.Fatal(err)
			}
			g.cfg = loadConfig{scheme: "sync", mte: true, iters: 1, cancelAfter: 20 * time.Millisecond,
				quarantineThreshold: tc.quar}
			g.attackFaults = tc.faults
			g.rows[tc.class].every = 1
			o := g.fire(&http.Client{Timeout: 10 * time.Second}, ts.URL, tc.i)
			if o.class != tc.class {
				t.Fatalf("request picked class %d, want %d", o.class, tc.class)
			}
			if tc.bad != "" {
				if o.err == nil || !strings.Contains(o.err.Error(), tc.bad) {
					t.Fatalf("err = %v, want one containing %q", o.err, tc.bad)
				}
				return
			}
			if o.err != nil {
				t.Fatalf("right reply rejected: %v", o.err)
			}
			var want, maybe tally
			for _, k := range tc.want {
				want[k]++
			}
			for _, k := range tc.maybe {
				maybe[k]++
			}
			if o.bumped != want || o.maybe != maybe {
				t.Fatalf("bumped %v maybe %v, want %v maybe %v", o.bumped, o.maybe, want, maybe)
			}
		})
	}
}

// The first rate that selects a request wins, in row order.
func TestPickPrecedence(t *testing.T) {
	g, err := newLoadGen()
	if err != nil {
		t.Fatal(err)
	}
	g.rows[classReject].every = 4
	g.rows[classCancel].every = 2
	g.rows[classFault].every = 1
	for i, want := range []class{classFault, classCancel, classFault, classReject, classFault, classCancel} {
		if got, _ := g.pick(i); got != want {
			t.Fatalf("request %d: class %s, want %s", i, g.rows[got].name, g.rows[want].name)
		}
	}
	if _, ord := g.pick(7); ord != 1 {
		t.Fatalf("request 7 is reject ordinal %d, want 1", ord)
	}
}

// A counter must land in [want, want+slack]: slack admits an abandoned
// connection's uncounted request, nothing else moves a counter unexpectedly.
func TestReconcileBounds(t *testing.T) {
	var before, after server.MetricsResponse
	var want, slack tally
	want[ctrRequests], slack[ctrRequests] = 5, 2
	for _, tc := range []struct {
		requests, errors uint64
		ok               bool
	}{
		{5, 0, true}, {7, 0, true}, {4, 0, false}, {8, 0, false}, {6, 1, false},
	} {
		after.RequestsTotal, after.ErrorsTotal = tc.requests, tc.errors
		if err := reconcile(&before, &after, want, slack); (err == nil) != tc.ok {
			t.Fatalf("requests +%d errors +%d: err = %v, want ok=%v", tc.requests, tc.errors, err, tc.ok)
		}
	}
}
