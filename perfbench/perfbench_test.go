package main

import (
	"encoding/binary"
	"errors"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"dosas"
	"dosas/internal/trace"
)

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 50},
		{39, 50},
		{40, 75},
		{100, 90},
		{199, 90},
		{200, 95},
		{999, 95},
		{1000, 99},
		{9999, 99},
		{10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
	for n := 1; n < 20000; n += 7 {
		p := tailPercentile(n)
		if p == 50 {
			continue
		}
		if b := beyond(n, p); b < minBeyond {
			t.Fatalf("n=%d: p%g leaves %d beyond", n, p, b)
		}
		for _, higher := range tailCandidates {
			if higher > p && beyond(n, higher) >= minBeyond {
				t.Fatalf("n=%d: picked p%g although p%g leaves %d beyond", n, p, higher, beyond(n, higher))
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := percentile(s, 99); got != 990 {
		t.Errorf("p99 = %g, want 990", got)
	}
	if got := beyond(len(s), 99); got != 10 {
		t.Errorf("beyond p99 = %d, want 10", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %g", got)
	}
}

func TestSelfTimeOverOverlappingChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	children := []span{
		{Start: 10, End: 30},
		{Start: 20, End: 50},  // overlaps the first
		{Start: 40, End: 45},  // inside the second
		{Start: 90, End: 120}, // runs past the parent
		{Start: -20, End: -5}, // before the parent
	}
	// Covered: [10,50) and [90,100) = 50 ns.
	if got := selfNS(parent, children); got != 50 {
		t.Errorf("self = %d, want 50", got)
	}
	if got := selfNS(parent, nil); got != 100 {
		t.Errorf("self with no children = %d, want 100", got)
	}
	if got := selfNS(parent, []span{{Start: -10, End: 200}}); got != 0 {
		t.Errorf("self under a covering child = %d, want 0", got)
	}
}

func TestAttributeSumsToWallByPriority(t *testing.T) {
	layers := [][]interval{
		{{20, 40}},           // highest priority
		{{10, 30}, {35, 60}}, // overlaps the first
		{{0, 5}, {50, 70}},
	}
	got := attribute(0, 100, layers)
	// [0,5) L2, [5,10) residual, [10,20) L1, [20,40) L0, [40,60) L1,
	// [60,70) L2, [70,100) residual.
	want := []int64{20, 10 + 20, 5 + 10, 5 + 30}
	var sum int64
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("layer %d: %d ns, want %d", i, got[i], want[i])
		}
		sum += got[i]
	}
	if sum != 100 {
		t.Errorf("parts sum to %d, want the wall time 100", sum)
	}
}

func TestCheckersCountMismatchAsFailed(t *testing.T) {
	want := generate(4096, 7, 1)
	got := append([]byte(nil), want...)
	if err := checkRead(got, len(got), nil, want); err != nil {
		t.Fatalf("identical bytes rejected: %v", err)
	}
	got[100] ^= 1
	if err := checkRead(got, len(got), nil, want); err == nil {
		t.Fatal("flipped byte accepted")
	}
	if err := checkRead(want, len(want)-1, nil, want); err == nil {
		t.Fatal("short read accepted")
	}
	if err := checkRead(want, len(want), errors.New("boom"), want); err == nil {
		t.Fatal("read error accepted")
	}
	if err := checkSize("f", 10, 11); err == nil {
		t.Fatal("wrong size accepted")
	}

	// A failed check is a failed operation: counted, and kept out of the
	// latency samples.
	e := &env{}
	st := &clientStats{}
	now := time.Now()
	e.record(st, clsRead, 0, "ReadAt", now, now.Add(time.Millisecond), 4096, checkRead(got, len(got), nil, want))
	e.record(st, clsRead, 0, "ReadAt", now, now.Add(time.Millisecond), 4096, checkRead(want, len(want), nil, want))
	if st.attempts != 2 || st.failed != 1 || len(st.samples[clsRead]) != 1 || st.bytes[clsRead] != 4096 {
		t.Fatalf("attempts=%d failed=%d samples=%d bytes=%d, want 2/1/1/4096",
			st.attempts, st.failed, len(st.samples[clsRead]), st.bytes[clsRead])
	}
}

func TestExpectedActiveMatchesDirectComputation(t *testing.T) {
	files := [][]byte{generate(1<<20, 3, 1), generate(1<<20, 3, 2)}
	out, err := expectedActive("sum8", nil, files, stripe, width)
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for _, f := range files {
		for _, b := range f {
			sum += uint64(b)
		}
	}
	if got := binary.LittleEndian.Uint64(out); got != sum {
		t.Fatalf("sum8 expectation %d, want %d", got, sum)
	}
	if err := checkActive("sum8", out, out); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), out...)
	bad[0]++
	if err := checkActive("sum8", bad, out); err == nil {
		t.Fatal("wrong sum accepted")
	}

	g, err := expectedActive("gaussian2d", dosas.GaussianParams(gaussWidth, false), files, stripe, width)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dosas.GaussianDigestResult(g)
	if err != nil {
		t.Fatal(err)
	}
	if d.Pixels != 2<<20 || d.Rows != 2<<20/gaussWidth {
		t.Fatalf("gaussian digest covers %d pixels in %d rows, want %d in %d", d.Pixels, d.Rows, 2<<20, 2<<20/gaussWidth)
	}
}

func TestLocalStreamsRoundRobin(t *testing.T) {
	data := make([]byte, 10*stripe)
	for i := range data {
		data[i] = byte(i / stripe)
	}
	s := localStreams(data, stripe, width)
	wantStripes := [][]byte{{0, 4, 8}, {1, 5, 9}, {2, 6}, {3, 7}}
	for slot, ids := range wantStripes {
		if len(s[slot]) != len(ids)*stripe {
			t.Fatalf("slot %d holds %d bytes, want %d", slot, len(s[slot]), len(ids)*stripe)
		}
		for k, id := range ids {
			if s[slot][k*stripe] != id {
				t.Fatalf("slot %d stripe %d is %d, want %d", slot, k, s[slot][k*stripe], id)
			}
		}
	}
}

func TestDrainerDedupesBySeq(t *testing.T) {
	d := newDrainer()
	ev := func(seq uint64) dosas.TraceEvent { return dosas.TraceEvent{Seq: seq} }
	d.addEvents("data-0", []dosas.TraceEvent{ev(1), ev(2)}, false) // baseline
	d.addEvents("data-0", []dosas.TraceEvent{ev(2), ev(3), ev(4)}, true)
	d.addEvents("data-0", []dosas.TraceEvent{ev(3), ev(4), ev(5)}, true)
	d.addEvents("data-0", []dosas.TraceEvent{ev(8), ev(9)}, true) // 6 and 7 overwritten
	var seqs []uint64
	for _, e := range d.events["data-0"] {
		seqs = append(seqs, e.Seq)
	}
	if want := []uint64{3, 4, 5, 8, 9}; !slices.Equal(seqs, want) {
		t.Fatalf("kept %v, want %v", seqs, want)
	}
	if d.lostEv != 2 {
		t.Fatalf("lost %d, want 2", d.lostEv)
	}

	rec := func(seq uint64, resolved bool) dosas.DecisionRecord {
		r := dosas.DecisionRecord{Seq: seq, Node: "data-0"}
		if resolved {
			r.Outcome = &dosas.DecisionOutcome{Disposition: "done"}
		}
		return r
	}
	d.addRecords("data-0", []dosas.DecisionRecord{rec(1, true)}, false)
	d.addRecords("data-0", []dosas.DecisionRecord{rec(1, true), rec(2, false)}, true)
	d.addRecords("data-0", []dosas.DecisionRecord{rec(2, true), rec(4, true)}, true)
	recs := d.decisionRecords()
	if len(recs) != 2 || recs[0].Seq != 2 || recs[0].Outcome == nil {
		t.Fatalf("records %+v: want seq 2 (resolved) and 4", recs)
	}
	if lost := d.lostRecords(); lost != 1 {
		t.Fatalf("lost records %d, want 1 (seq 3)", lost)
	}
}

func TestJoinCoverage(t *testing.T) {
	at := func(ns int64) time.Time { return time.Unix(0, ns) }
	calls := []callSpan{
		{span: span{ID: 1, Start: 100, End: 200}, parts: 2},
		{span: span{ID: 2, Start: 300, End: 400}, parts: 1},
	}
	events := map[string][]dosas.TraceEvent{
		"client": {
			{Kind: trace.KindIssue, TraceID: 7, ReqID: 1, Time: at(110), Note: "server 0"},
			{Kind: trace.KindIssue, TraceID: 7, ReqID: 2, Time: at(111), Note: "server 1"},
			{Kind: trace.KindRespond, TraceID: 7, ReqID: 2, Time: at(150), Dur: 30},
			{Kind: trace.KindIssue, TraceID: 8, ReqID: 3, Time: at(310), Note: "server 0"},
		},
		"data-0": {
			{Kind: trace.KindArrive, TraceID: 7, ReqID: 1, Time: at(112)},
			{Kind: trace.KindAdmit, TraceID: 7, ReqID: 1, Time: at(113), Phase: trace.PhaseDecision, Dur: 1},
			{Kind: trace.KindStart, TraceID: 7, ReqID: 1, Time: at(120), Phase: trace.PhaseQueueWait, Dur: 7},
			{Kind: trace.KindComplete, TraceID: 7, ReqID: 1, Time: at(180), Phase: trace.PhaseKernel, Dur: 60},
			// The second call's part arrived and was admitted, but its
			// completion was lost to ring overwrite.
			{Kind: trace.KindArrive, TraceID: 8, ReqID: 3, Time: at(312)},
			{Kind: trace.KindStart, TraceID: 8, ReqID: 3, Time: at(320), Phase: trace.PhaseQueueWait, Dur: 5},
		},
		"data-1": {
			{Kind: trace.KindArrive, TraceID: 7, ReqID: 2, Time: at(115)},
			{Kind: trace.KindReject, TraceID: 7, ReqID: 2, Time: at(116), Phase: trace.PhaseDecision, Dur: 1},
		},
	}
	var id uint64 = 100
	j := join(calls, events, func() uint64 { id++; return id })
	if j.calls != 2 || j.covered != 1 {
		t.Fatalf("covered %d of %d calls, want 1 of 2", j.covered, j.calls)
	}
	// Call 1: decision, queue-wait, kernel on data-0; reject decision on
	// data-1; the client's rpc span.
	if got := len(j.children[1]); got != 5 {
		t.Fatalf("call 1 has %d child spans, want 5: %+v", got, j.children[1])
	}
	for _, s := range j.children[1] {
		if s.Parent != 1 || s.TraceID != 7 {
			t.Fatalf("span %+v not parented to call 1", s)
		}
	}
}

// TestVerifyCatchesCorruptedWrite boots a small cluster, runs the write
// step, then makes the benchmark's record of one written block disagree
// with the bytes the program holds: verify must count it as failed.
func TestVerifyCatchesCorruptedWrite(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a cluster")
	}
	const block = 64 << 10
	wl := &workload{
		name: "verify-test", a: clsRead, b: clsWrite,
		files: []fileSpec{
			{name: "bulk/read", size: 1 << 20, stream: 10},
			{name: "bulk/write", size: 1 << 20, stream: 11},
		},
		readSize: block, writeSize: block, writeFile: "bulk/write",
		stepA: readStep("bulk/read", block), stepB: writeStep(block),
	}
	e, err := newEnv(wl, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.boot(filepath.Join(t.TempDir(), "cluster")); err != nil {
		t.Fatal(err)
	}
	defer e.close()
	p := e.runPhase(300*time.Millisecond, 5, true)
	for _, st := range []*clientStats{p.a, p.b} {
		if st.failed != 0 || st.attempts == 0 {
			t.Fatalf("clean run: %d of %d failed: %v", st.failed, st.attempts, st.notes)
		}
	}
	if len(e.written) == 0 {
		t.Fatal("the writer wrote nothing")
	}
	checks, fails := e.verify()
	if len(fails) != 0 || checks < 3 {
		t.Fatalf("clean verify: %d checks, failures %v", checks, fails)
	}
	for b, src := range e.written {
		e.written[b] = (src + 1) % len(e.pool)
		break
	}
	if _, fails := e.verify(); len(fails) != 1 {
		t.Fatalf("corrupted block: %d failures %v, want 1", len(fails), fails)
	}
}

func TestSamplePacking(t *testing.T) {
	for _, tc := range []struct {
		end, lat time.Duration
		kind     uint8
	}{
		{0, 0, 0},
		{1500 * time.Millisecond, 52345 * time.Nanosecond, 1},
		{59*time.Second + 999*time.Millisecond, 3*time.Second + 7, 0},
	} {
		s := newSample(tc.end, tc.lat, tc.kind)
		if s.end() != tc.end || s.lat() != tc.lat || s.kind() != int(tc.kind) {
			t.Errorf("packed (%v, %v, %d) unpacks to (%v, %v, %d)", tc.end, tc.lat, tc.kind, s.end(), s.lat(), s.kind())
		}
	}
}
