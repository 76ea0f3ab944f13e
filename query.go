package dosas

import (
	"fmt"
	"sort"
	"time"

	"dosas/internal/pfs"
)

// RangeQuery parameterises a durable telemetry range query against the
// cluster's node archives (Options.ArchiveDir / -archive-dir). Unlike
// Series, which reads the in-memory rings, a range query reads history
// that survives restarts and reaches back to the archives' retention
// horizon.
type RangeQuery struct {
	// Name is the series to query, e.g. "queue.depth".
	Name string
	// From and Until bound the window (inclusive). A zero From means
	// the beginning of archived history; a zero Until means now.
	From, Until time.Time
	// Step, when positive, reduces each node's answer to per-step
	// bucket means aligned to the epoch — the reduction happens on the
	// serving node, so only the buckets cross the wire.
	Step time.Duration
	// Agg, when set, additionally merges the step-aligned per-node
	// series into one cluster series: "avg", "min", "max", "sum", or
	// "last" (the value of the last node in sweep order reporting in
	// that bucket). Aggregation needs a shared time base, so a zero
	// Step is promoted to one second.
	Agg string
	// Node, when set, restricts the sweep to that one node — the
	// client-side layout name ("meta", "data-0", …) or, over the wire,
	// the name the daemon reports ("data@host:port", as query output
	// shows).
	Node string
}

// stepNano resolves the effective bucket width: an explicit Step wins;
// aggregation without one gets a one-second default; otherwise raw.
func (q RangeQuery) stepNano() int64 {
	if q.Step > 0 {
		return int64(q.Step)
	}
	if q.Agg != "" {
		return int64(time.Second)
	}
	return 0
}

// validAggs names the cross-node aggregation functions Query accepts.
var validAggs = map[string]bool{"": true, "avg": true, "min": true, "max": true, "sum": true, "last": true}

// NodeSeries is one node's slice of a range-query answer.
type NodeSeries struct {
	Node   string        `json:"node"`
	Points []SeriesPoint `json:"points,omitempty"`
	// EarliestNano is the node archive's retention horizon: samples
	// older than this have been pruned (0 when the archive is empty). A
	// query window reaching before it is answered as completely as
	// retention allows.
	EarliestNano int64 `json:"earliest,omitempty"`
}

// QueryResult is a range query's answer: the per-node series in sweep
// order (metadata server first, then storage nodes), plus the merged
// cluster series when an aggregation was requested.
type QueryResult struct {
	Name string `json:"name"`
	// Nodes holds each swept node's step-aligned series. Nodes running
	// without an archive and unreachable nodes are absent (the latter
	// surface in Health).
	Nodes []NodeSeries `json:"nodes"`
	// Agg and Aggregated carry the cross-node merge when requested.
	Agg        string        `json:"agg,omitempty"`
	Aggregated []SeriesPoint `json:"aggregated,omitempty"`
}

// aggregateNodes merges step-aligned per-node series into one cluster
// series per the named function. Buckets are matched by timestamp;
// nodes missing a bucket simply don't contribute to it.
func aggregateNodes(nodes []NodeSeries, agg string) []SeriesPoint {
	if agg == "" {
		return nil
	}
	type cell struct {
		sum, min, max, last float64
		n                   int
	}
	cells := make(map[int64]*cell)
	for _, ns := range nodes {
		for _, p := range ns.Points {
			c := cells[p.UnixNano]
			if c == nil {
				c = &cell{min: p.Value, max: p.Value}
				cells[p.UnixNano] = c
			}
			if p.Value < c.min {
				c.min = p.Value
			}
			if p.Value > c.max {
				c.max = p.Value
			}
			c.sum += p.Value
			c.last = p.Value
			c.n++
		}
	}
	if len(cells) == 0 {
		return nil
	}
	times := make([]int64, 0, len(cells))
	for t := range cells {
		times = append(times, t)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	out := make([]SeriesPoint, 0, len(times))
	for _, t := range times {
		c := cells[t]
		var v float64
		switch agg {
		case "min":
			v = c.min
		case "max":
			v = c.max
		case "sum":
			v = c.sum
		case "last":
			v = c.last
		default: // avg
			v = c.sum / float64(c.n)
		}
		out = append(out, SeriesPoint{UnixNano: t, Value: v})
	}
	return out
}

// queryOf sweeps every node's durable archive and assembles the
// range-query answer from the nodes that replied.
func queryOf(n nodes, q RangeQuery) (QueryResult, error) {
	if !validAggs[q.Agg] {
		return QueryResult{}, fmt.Errorf("dosas: unknown aggregation %q (want avg, min, max, sum or last)", q.Agg)
	}
	args := pfs.QueryArgs{Name: q.Name, ToNano: time.Now().UnixNano(), StepNano: q.stepNano()}
	if !q.From.IsZero() {
		args.FromNano = q.From.UnixNano()
	}
	if !q.Until.IsZero() {
		args.ToNano = q.Until.UnixNano()
	}
	answers, err := pfs.Sweep(n.pool, n.targets, pfs.InspectQuery, args)
	res := QueryResult{Name: q.Name, Agg: q.Agg}
	for _, a := range pfs.Live(answers) {
		// The filter accepts either the client-side layout name or the
		// name the node answered with — daemons report their configured
		// identity ("data@host:port"), which is what query output shows.
		if q.Node != "" && q.Node != a.Name && q.Node != a.Node {
			continue
		}
		res.Nodes = append(res.Nodes, NodeSeries{Node: a.Node, Points: a.Body.Points, EarliestNano: a.Body.EarliestNano})
	}
	res.Aggregated = aggregateNodes(res.Nodes, q.Agg)
	return res, err
}

// Query answers a range query from the cluster's node archives
// in-process — the durable counterpart of Series. It runs the same
// providers the wire path does, so the answer matches what dosasctl
// query sees.
func (c *Cluster) Query(q RangeQuery) (QueryResult, error) { return queryOf(c.nodes(), q) }

// Query sweeps every node's durable telemetry archive over the wire and
// assembles the range-query answer. Unreachable nodes and nodes without
// an archive are skipped for a deterministic partial result (the former
// surface in Health); failed answers are reported.
func (fs *FS) Query(q RangeQuery) (QueryResult, error) { return queryOf(fs.nodes(), q) }
