package dosas

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"dosas/internal/pfs"
)

// nodeSet returns the sorted names of a map's keys.
func nodeSet[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// namesOf maps each element to a comparable key, in order.
func namesOf[T any](xs []T, key func(T) string) []string {
	out := make([]string, 0, len(xs))
	for _, x := range xs {
		out = append(out, key(x))
	}
	return out
}

// assertSame fails when the in-process and wire views differ.
func assertSame(t *testing.T, what string, local, remote any) {
	t.Helper()
	if !reflect.DeepEqual(local, remote) {
		t.Errorf("%s: Cluster %v != FS %v", what, local, remote)
	}
}

// Every Cluster.X inspect method and its FS.X twin run the same sweep,
// one over the in-process registries and one over the wire, so on one
// TCP cluster they must agree on the node set and on every value that
// does not move between two calls. Then one data server stops: health
// reports it not ready with a failing "reachable" check, every other
// kind skips it and still returns the others, and the metadata server
// never answers the kinds it has no source for.
func TestInspectParityAndPartialFailure(t *testing.T) {
	c, err := StartCluster(Options{
		DataServers:   3,
		TCP:           true,
		TelemetryTick: 20 * time.Millisecond,
		ArchiveDir:    t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	fs, err := c.Connect(DOSAS)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fs.Close)

	f, err := fs.Create("parity.bin")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 256<<10), 0); err != nil {
		t.Fatal(err)
	}
	res, err := f.ReadEx("sum8", nil, 0, f.Size())
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // a few samples into every archive
	until := time.Now().Add(-50 * time.Millisecond)

	stats, err := fs.Stats()
	if err != nil {
		t.Fatal(err)
	}
	local := c.Stats()
	assertSame(t, "stats nodes", nodeSet(local), nodeSet(stats))
	for node, s := range local {
		for _, name := range []string{"active.arrivals", "meta.create"} {
			assertSame(t, node+" "+name, s.Counter(name), stats[node].Counter(name))
		}
	}

	event := func(e TraceEvent) string { return fmt.Sprintf("%s/%v/%d", e.Node, e.Kind, e.Time.UnixNano()) }
	tl, err := fs.TraceTimeline(res.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl) == 0 {
		t.Fatal("no storage-side trace events")
	}
	assertSame(t, "trace", namesOf(c.TraceTimeline(res.TraceID), event), namesOf(tl, event))

	health := func(r HealthReport) string {
		s := r.Node + "/" + r.Role
		for _, chk := range r.Checks {
			s += "/" + chk.Name
		}
		return s
	}
	assertSame(t, "health", namesOf(c.Health(), health), namesOf(fs.Health(), health))

	series, err := fs.Series(0)
	if err != nil {
		t.Fatal(err)
	}
	lseries := c.Series(0)
	assertSame(t, "series nodes", nodeSet(lseries), nodeSet(series))
	seriesName := func(s Series) string { return s.Name }
	for node := range lseries {
		assertSame(t, node+" series", namesOf(lseries[node], seriesName), namesOf(series[node], seriesName))
	}

	decision := func(r DecisionRecord) string { return fmt.Sprintf("%s/%s/%d", r.Node, r.Solver, r.Seq) }
	recs, _, err := fs.DecisionLog(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no decisions recorded")
	}
	assertSame(t, "decisions", namesOf(c.DecisionLogAll(), decision), namesOf(recs, decision))

	pages, err := fs.Events(nil, EventDebug, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wireEvents [][]Event
	for _, p := range pages {
		wireEvents = append(wireEvents, p.Events)
	}
	ev := func(e Event) string { return e.Node + "/" + e.Msg }
	assertSame(t, "events", namesOf(c.Events(EventDebug, 0), ev), namesOf(MergeEvents(wireEvents...), ev))

	alerts, err := fs.Alerts()
	if err != nil {
		t.Fatal(err)
	}
	alert := func(a Alert) string { return a.Node + "/" + a.Rule }
	assertSame(t, "alerts", namesOf(c.Alerts(), alert), namesOf(alerts, alert))

	tenants, err := fs.Tenants()
	if err != nil {
		t.Fatal(err)
	}
	usage := func(r TenantReport) string {
		s := r.Node
		for _, u := range r.Usage {
			s += "/" + u.Tenant + "/" + formatBytes(u.BytesRead) + "/" + formatBytes(u.BytesWritten)
		}
		return s
	}
	assertSame(t, "tenants", namesOf(c.Tenants(), usage), namesOf(tenants, usage))

	q := RangeQuery{Name: "runtime.goroutines", Until: until}
	lq, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	wq, err := fs.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(lq.Nodes) != 4 {
		t.Fatalf("query answered by %d nodes, want 4", len(lq.Nodes))
	}
	assertSame(t, "query", lq.Nodes, wq.Nodes)

	// The metadata server keeps no trace ring, decision log or tenant
	// table: it is left out of those sweeps rather than answering empty.
	noMeta := func(kind string, names []string) {
		t.Helper()
		for _, n := range names {
			if n == "meta" {
				t.Errorf("%s sweep has an entry from meta", kind)
			}
		}
	}
	target := func(a pfs.Target) string { return a.Name }
	wire := fs.nodes()
	traceAnswers, _ := pfs.Sweep(wire.pool, wire.targets, pfs.InspectTrace, pfs.TraceArgs{})
	noMeta("trace", namesOf(traceAnswers, func(a pfs.Answer[pfs.TraceBody]) string { return target(a.Target) }))
	decisionAnswers, _ := pfs.Sweep(wire.pool, wire.targets, pfs.InspectDecisions, pfs.DecisionArgs{})
	noMeta("decisions", namesOf(decisionAnswers, func(a pfs.Answer[pfs.DecisionBody]) string { return target(a.Target) }))
	noMeta("tenants", namesOf(tenants, func(r TenantReport) string { return r.Node }))

	// Stop data-1. servers[0] is the metadata server.
	c.servers[2].Close()
	const dead = "data-1"

	reports := fs.Health()
	if len(reports) != 4 {
		t.Fatalf("health after stop: %d reports, want 4", len(reports))
	}
	for _, r := range reports {
		if r.Node != dead {
			if !r.Ready {
				t.Errorf("live node %s not ready: %+v", r.Node, r)
			}
			continue
		}
		if r.Ready || r.Role != "data" || len(r.Checks) != 1 || r.Checks[0].Name != "reachable" || r.Checks[0].OK {
			t.Errorf("dead node report = %+v, want one failing reachable check", r)
		}
	}

	skips := func(kind string, names []string, err error, want int) {
		t.Helper()
		if err != nil {
			t.Errorf("%s after stop: %v", kind, err)
		}
		seen := map[string]bool{}
		for _, n := range names {
			if n == dead {
				t.Errorf("%s after stop: entry from the dead node", kind)
			}
			seen[n] = true
		}
		if len(seen) != want {
			t.Errorf("%s after stop: nodes %v, want %d", kind, names, want)
		}
	}
	stats, err = fs.Stats()
	skips("stats", nodeSet(stats), err, 3)
	tl, err = fs.TraceTimeline(res.TraceID)
	skips("trace", namesOf(tl, func(e TraceEvent) string { return e.Node }), err, 2)
	series, err = fs.Series(0)
	skips("series", nodeSet(series), err, 3)
	recs, _, err = fs.DecisionLog(0, 0)
	skips("decisions", namesOf(recs, func(r DecisionRecord) string { return r.Node }), err, 2)
	pages, err = fs.Events(nil, EventDebug, 0)
	skips("events", namesOf(pages, func(p EventsPage) string { return p.Node }), err, 3)
	alerts, err = fs.Alerts()
	skips("alerts", namesOf(alerts, func(a Alert) string { return a.Node }), err, 3)
	tenants, err = fs.Tenants()
	skips("tenants", namesOf(tenants, func(r TenantReport) string { return r.Node }), err, 2)
	wq, err = fs.Query(q)
	skips("query", namesOf(wq.Nodes, func(n NodeSeries) string { return n.Node }), err, 3)
}
