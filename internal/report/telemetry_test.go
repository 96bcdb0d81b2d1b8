package report

import (
	"testing"
	"time"

	"mte4jni/internal/mte"
)

func telemetryFault(pc string, ptrTag mte.Tag, async bool) *mte.Fault {
	return &mte.Fault{
		Kind: mte.FaultTagMismatch, Access: mte.AccessStore,
		Ptr: mte.MakePtr(0x7000_0000_0040, ptrTag), Size: 1,
		PtrTag: ptrTag, MemTag: 0x0, Async: async,
		PC: pc, Backtrace: []string{pc}, Thread: "sess-1",
	}
}

func TestSinkCountersAndLatency(t *testing.T) {
	s := NewSink(8)
	s.ObserveRequest(40*time.Microsecond, false, false)
	s.ObserveRequest(2*time.Millisecond, true, false)
	s.ObserveRequest(300*time.Millisecond, false, true)

	snap := s.Snapshot()
	if snap.RequestsTotal != 3 || snap.FaultsTotal != 1 || snap.ErrorsTotal != 1 {
		t.Fatalf("counters = %d/%d/%d, want 3/1/1",
			snap.RequestsTotal, snap.FaultsTotal, snap.ErrorsTotal)
	}
	lat := snap.Latency
	if lat.Count != 3 {
		t.Fatalf("latency count = %d, want 3", lat.Count)
	}
	if lat.MaxNS != uint64(300*time.Millisecond) {
		t.Fatalf("latency max = %d", lat.MaxNS)
	}
	// 40µs → bucket ≤50µs (index 0); 2ms → ≤2500µs (index 5); 300ms → +inf.
	if lat.BucketsUS[0] != 1 || lat.BucketsUS[5] != 1 || lat.BucketsUS[len(lat.BucketsUS)-1] != 1 {
		t.Fatalf("bucket spread wrong: %v", lat.BucketsUS)
	}
}

func TestSinkDedupBySignature(t *testing.T) {
	s := NewSink(8)
	if _, fresh := s.RecordFault("sess-1", "sum", telemetryFault("native0+0", 3, false)); !fresh {
		t.Fatal("first occurrence not reported fresh")
	}
	if _, fresh := s.RecordFault("sess-2", "sum", telemetryFault("native0+0", 3, false)); fresh {
		t.Fatal("duplicate signature reported fresh")
	}
	// Different workload, async mode, or tag pair each open a new bucket.
	s.RecordFault("sess-3", "blur", telemetryFault("native0+0", 3, false))
	asyncRec, _ := s.RecordFault("sess-4", "sum", telemetryFault("native0+0", 3, true))
	s.RecordFault("sess-5", "sum", telemetryFault("native0+0", 9, false))

	// Async tag mismatches carry the async signal code, as in the tombstones.
	if asyncRec.Kind != "SEGV_MTEAERR" {
		t.Fatalf("async record kind = %q, want SEGV_MTEAERR", asyncRec.Kind)
	}

	snap := s.Snapshot()
	if snap.UniqueFaultSignatures != 4 {
		t.Fatalf("unique signatures = %d, want 4", snap.UniqueFaultSignatures)
	}
	top := snap.Signatures[0]
	if top.Count != 2 || top.Signature.Workload != "sum" || top.Signature.Async {
		t.Fatalf("top signature wrong: %+v", top)
	}
	if top.FirstSeq != 1 || top.LastSeq != 2 {
		t.Fatalf("top signature seqs = %d..%d, want 1..2", top.FirstSeq, top.LastSeq)
	}
}

func TestSinkRingBounded(t *testing.T) {
	s := NewSink(4)
	// 6 records fill the ring and wrap it once; 19 wrap it four times and
	// end with the head mid-ring.
	total := 0
	for _, n := range []int{6, 13} {
		for i := 0; i < n; i++ {
			total++
			s.RecordFault("sess", "w", telemetryFault("pc", mte.Tag(total%8), false))
		}
		snap := s.Snapshot()
		if len(snap.Recent) != 4 {
			t.Fatalf("after %d faults the ring holds %d records, want 4", total, len(snap.Recent))
		}
		if snap.DroppedFaultRecords != uint64(total-4) {
			t.Fatalf("after %d faults dropped = %d, want %d", total, snap.DroppedFaultRecords, total-4)
		}
		for i, rec := range snap.Recent {
			if want := uint64(total - 3 + i); rec.Seq != want {
				t.Fatalf("after %d faults Recent[%d].Seq = %d, want %d (oldest first)", total, i, rec.Seq, want)
			}
		}
		if snap.FaultsTotal != 0 {
			// RecordFault alone does not bump the request-level fault counter;
			// that is ObserveRequest's job, so the two reconcile independently.
			t.Fatalf("RecordFault bumped FaultsTotal to %d", snap.FaultsTotal)
		}
	}
}

func TestSinkScreenCounters(t *testing.T) {
	s := NewSink(8)
	s.ObserveScreen(false, false) // admitted, cold
	s.ObserveScreen(true, false)  // rejected, cold
	s.ObserveScreen(true, true)   // rejected, cached
	s.ObserveScreen(false, true)  // admitted, cached

	snap := s.Snapshot()
	if snap.ScreenedTotal != 4 || snap.ScreenRejectedTotal != 2 || snap.ScreenCacheHits != 2 {
		t.Fatalf("screen counters = %d/%d/%d, want 4/2/2",
			snap.ScreenedTotal, snap.ScreenRejectedTotal, snap.ScreenCacheHits)
	}
	// Screening is admission control: it must not count as request traffic.
	if snap.RequestsTotal != 0 {
		t.Fatalf("screening leaked into requests_total: %d", snap.RequestsTotal)
	}
}
