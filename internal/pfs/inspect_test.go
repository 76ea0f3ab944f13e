package pfs

import (
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"

	"dosas/internal/eventlog"
	"dosas/internal/slo"
	"dosas/internal/telemetry"
	"dosas/internal/wire"
)

// inspect sends one InspectReq through h, the way a server dispatches
// it, and decodes the body as kind k's body type.
func inspect[A, B any](t testing.TB, h Handler, k Kind[A, B], args A) (*wire.InspectResp, B) {
	t.Helper()
	var body B
	raw, err := json.Marshal(args)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := h.Handle(&wire.InspectReq{Kind: k.Name, Args: raw})
	if err != nil {
		t.Fatalf("inspect %s: %v", k.Name, err)
	}
	ir := resp.(*wire.InspectResp)
	if err := json.Unmarshal(ir.Body, &body); err != nil {
		t.Fatalf("inspect %s body: %v", k.Name, err)
	}
	return ir, body
}

// newDroppedSampler builds a sampler whose 2-point ring has already
// overwritten two samples.
func newDroppedSampler(t *testing.T) *telemetry.Sampler {
	t.Helper()
	s := telemetry.NewSampler(telemetry.Config{Capacity: 2})
	s.Register("x", func() float64 { return 1 })
	for i := 0; i < 4; i++ {
		s.Tick()
	}
	if s.Dropped() != 2 {
		t.Fatalf("sampler dropped = %d, want 2", s.Dropped())
	}
	return s
}

// TestSeriesFetchCarriesDropped checks a data server's series answer
// reports how many ring samples were overwritten, alongside the tick.
func TestSeriesFetchCarriesDropped(t *testing.T) {
	tele := newDroppedSampler(t)
	ds, err := NewDataServer(DataConfig{Store: NewMemStore(), Node: "data-0", Telemetry: tele})
	if err != nil {
		t.Fatal(err)
	}
	ir, body := inspect(t, ds, InspectSeries, SeriesArgs{})
	if ir.Node != "data-0" || ir.Role != "data" {
		t.Fatalf("answered as %s/%s", ir.Node, ir.Role)
	}
	if body.Dropped != 2 {
		t.Fatalf("Dropped = %d, want 2", body.Dropped)
	}
	if body.TickNano != int64(tele.Interval()) {
		t.Fatalf("TickNano = %d, want %d", body.TickNano, tele.Interval())
	}
	if len(body.Series) != 1 || body.Series[0].Name != "x" {
		t.Fatalf("series = %+v", body.Series)
	}
	if _, body := inspect(t, ds, InspectSeries, SeriesArgs{Names: []string{"nope"}}); len(body.Series) != 0 {
		t.Fatalf("unknown name returned %+v", body.Series)
	}
}

// TestHealthSurfacesRingDrops checks the node's health report carries an
// informational telemetry check once the ring has overwritten samples —
// without degrading readiness.
func TestHealthSurfacesRingDrops(t *testing.T) {
	ds, err := NewDataServer(DataConfig{Store: NewMemStore(), Node: "data-0", Telemetry: newDroppedSampler(t)})
	if err != nil {
		t.Fatal(err)
	}
	_, hr := inspect(t, ds, InspectHealth, NoArgs{})
	if !hr.Ready {
		t.Fatalf("ring drops degraded readiness: %+v", hr)
	}
	found := false
	for _, chk := range hr.Checks {
		if chk.Name == "telemetry" {
			found = true
			if !chk.OK || !strings.Contains(chk.Detail, "2 ring samples overwritten") {
				t.Fatalf("telemetry check = %+v", chk)
			}
		}
	}
	if !found {
		t.Fatalf("no telemetry check in %+v", hr.Checks)
	}
}

// TestEventAndAlertFetch round-trips a data server's event tail and
// alert table through the inspect plane, including the since-cursor
// and the missing-source cases sweeps depend on.
func TestEventAndAlertFetch(t *testing.T) {
	events, err := eventlog.New(eventlog.Config{Node: "data-0"})
	if err != nil {
		t.Fatal(err)
	}
	events.Info("test", "first")
	events.Warn("test", "second")

	tele := telemetry.NewSampler(telemetry.Config{})
	engine, err := slo.NewEngine(slo.Config{Rules: slo.DefaultRules(), Sampler: tele, Node: "data-0"})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := NewDataServer(DataConfig{
		Store: NewMemStore(), Node: "data-0",
		Telemetry: tele, Events: events, SLO: engine,
	})
	if err != nil {
		t.Fatal(err)
	}

	_, page := inspect(t, ds, InspectEvents, EventArgs{})
	if len(page.Events) != 2 || page.Events[0].Msg != "first" || page.Events[1].Msg != "second" {
		t.Fatalf("events = %+v", page.Events)
	}
	if page.NextSeq != 3 {
		t.Fatalf("NextSeq = %d, want 3", page.NextSeq)
	}

	// A cursor past the first event returns only what came later.
	if _, page = inspect(t, ds, InspectEvents, EventArgs{SinceSeq: 1}); len(page.Events) != 1 || page.Events[0].Msg != "second" {
		t.Fatalf("cursored events = %+v", page.Events)
	}
	// So does a level floor.
	if _, page = inspect(t, ds, InspectEvents, EventArgs{MinLevel: uint8(eventlog.Warn)}); len(page.Events) != 1 || page.Events[0].Msg != "second" {
		t.Fatalf("warn-and-up events = %+v", page.Events)
	}

	_, alerts := inspect(t, ds, InspectAlerts, NoArgs{})
	if len(alerts) != len(slo.DefaultRules()) {
		t.Fatalf("alerts = %d, want %d rules", len(alerts), len(slo.DefaultRules()))
	}
	for _, a := range alerts {
		if a.Node != "data-0" || a.State != slo.StateInactive {
			t.Fatalf("alert = %+v", a)
		}
	}

	// A server without an event log or engine has no provider for them.
	bare, err := NewDataServer(DataConfig{Store: NewMemStore(), Node: "data-1"})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"events", "alerts", "series", "trace", "decisions", "tenants", "query"} {
		if _, err := bare.Handle(&wire.InspectReq{Kind: kind}); !errors.Is(err, ErrUnsupported) {
			t.Errorf("bare server %s: err = %v, want ErrUnsupported", kind, err)
		}
	}
}

// The metadata server keeps no trace ring, decision log or tenant
// table: it answers those kinds ErrUnsupported (no empty stub), and
// serves stats and health like every node.
func TestMetaServesOnlyWhatItKeeps(t *testing.T) {
	m, err := NewMetaServer(MetaConfig{NumDataServers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, kind := range []string{"trace", "decisions", "tenants"} {
		if _, err := m.Handle(&wire.InspectReq{Kind: kind}); !errors.Is(err, ErrUnsupported) {
			t.Errorf("meta %s: err = %v, want ErrUnsupported", kind, err)
		}
	}
	ir, hr := inspect(t, m, InspectHealth, NoArgs{})
	if ir.Node != "meta" || ir.Role != "meta" || !hr.Ready || hr.Role != "meta" {
		t.Fatalf("meta health = %+v from %s/%s", hr, ir.Node, ir.Role)
	}
	if _, st := inspect(t, m, InspectStats, NoArgs{}); st.Mode != "" {
		t.Fatalf("meta stats mode = %q", st.Mode)
	}
}

// Args come off the network: anything but one object of the kind's own
// fields is rejected as invalid, and an unknown kind as unsupported.
func TestInspectRejectsBadArgs(t *testing.T) {
	ds, err := NewDataServer(DataConfig{Store: NewMemStore(), Node: "data-0", Telemetry: newDroppedSampler(t)})
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range []string{`{`, `[]`, `7`, `null`, `"x"`, `{"names":"x"}`, `{"bogus":1}`, `{} {}`, `{}x`} {
		if _, err := ds.Handle(&wire.InspectReq{Kind: "series", Args: []byte(args)}); !errors.Is(err, ErrInvalid) {
			t.Errorf("args %q: err = %v, want ErrInvalid", args, err)
		}
	}
	for _, args := range []string{``, `{}`, ` {"window_nano":5} `} {
		if _, err := ds.Handle(&wire.InspectReq{Kind: "series", Args: []byte(args)}); err != nil {
			t.Errorf("args %q: %v", args, err)
		}
	}
	if _, err := ds.Handle(&wire.InspectReq{Kind: "Stats"}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("unknown kind: err = %v, want ErrUnsupported", err)
	}
}

// One sweep over wire targets: nodes without a provider are left out,
// an unreachable node is kept with Err set but is not a sweep error,
// and a node that fails the request is both kept and reported.
func TestSweepPartialFailureRules(t *testing.T) {
	tc := startCluster(t, 2)
	targets := append(tc.client.Targets(), Target{Name: "data-2", Role: "data", Addr: "nowhere"})

	stats, err := Sweep(tc.client.Pool(), targets, InspectStats, NoArgs{})
	if err != nil {
		t.Fatalf("unreachable node surfaced as a sweep error: %v", err)
	}
	if len(stats) != 4 {
		t.Fatalf("stats answers = %d, want meta + 2 data + dead", len(stats))
	}
	if dead := stats[3]; dead.Err == nil || dead.Name != "data-2" || dead.Node != "data-2" {
		t.Fatalf("dead node answer = %+v", dead)
	}
	if live := Live(stats); len(live) != 3 || live[0].Name != "meta" || live[0].Role != "meta" {
		t.Fatalf("live answers = %+v", live)
	}

	// No test server keeps a trace ring: every reachable node is left
	// out, only the dead one remains.
	traces, err := Sweep(tc.client.Pool(), targets, InspectTrace, TraceArgs{})
	if err != nil || len(traces) != 1 || traces[0].Name != "data-2" {
		t.Fatalf("trace sweep = %+v, %v", traces, err)
	}

	// In-process targets answer with the same typed values.
	local, err := Sweep(nil, []Target{tc.meta.Inspector().Target()}, InspectHealth, NoArgs{})
	if err != nil || len(local) != 1 || local[0].Body.Node != "meta" || !local[0].Body.Ready {
		t.Fatalf("local health sweep = %+v, %v", local, err)
	}
}

// The events -follow loop feeds NextSeq-1 back as its cursor. The
// events, the cursor and the drop count must come from one instant, or
// an event logged between them is past the cursor but not in the page
// and the follower skips it for good. A concurrent writer and a
// follower tailing through the provider must see every sequence number
// exactly once.
func TestEventsFollowNeverSkips(t *testing.T) {
	const n = 5000
	l, err := eventlog.New(eventlog.Config{Node: "data-0", Capacity: 2 * n})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := NewDataServer(DataConfig{Store: NewMemStore(), Node: "data-0", Events: l})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			l.Info("writer", "tick")
		}
	}()
	seen := make([]int, n+1)
	var cursor uint64
	for cursor < n {
		_, page := inspect(t, ds, InspectEvents, EventArgs{SinceSeq: cursor})
		for _, ev := range page.Events {
			seen[ev.Seq]++
		}
		if page.Dropped != 0 {
			t.Fatalf("ring dropped %d events", page.Dropped)
		}
		cursor = page.NextSeq - 1
	}
	wg.Wait()
	for seq := 1; seq <= n; seq++ {
		if seen[seq] != 1 {
			t.Fatalf("event %d seen %d times", seq, seen[seq])
		}
	}
}
