package dosas

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"dosas/internal/eventlog"
	"dosas/internal/metrics"
	"dosas/internal/pfs"
	"dosas/internal/slo"
	"dosas/internal/telemetry"
	"dosas/internal/trace"
)

// TraceEvent is one recorded lifecycle event: a span of a distributed
// trace, carrying the TraceID minted by the issuing client, the recording
// node's identity, the phase it measures (queue-wait, kernel-execute,
// network-transfer, bounce-decision), its measured duration, and — for
// kernel phases — the Contention Estimator's predicted duration.
type TraceEvent = trace.Event

// StatsSnapshot is a consistent, JSON-encodable copy of one node's
// metric registry, as served by the "stats" inspect kind.
type StatsSnapshot = metrics.Snapshot

// nodes is what one inspect sweep asks: an in-process cluster's node
// registries (no pool; the sweep takes the providers' typed values, no
// JSON), or a client's nodes over the wire.
type nodes struct {
	pool    *pfs.Pool
	targets []pfs.Target
}

// nodes lists the cluster's node registries in sweep order: metadata
// server first, then storage nodes in layout order.
func (c *Cluster) nodes() nodes {
	var n nodes
	if c.meta != nil {
		n.targets = append(n.targets, c.meta.Inspector().Target())
	}
	for _, ds := range c.dataServers {
		n.targets = append(n.targets, ds.Inspector().Target())
	}
	return n
}

// nodes lists the connected cluster's nodes over the wire, in the same
// order.
func (fs *FS) nodes() nodes { return nodes{fs.pc.Pool(), fs.pc.Targets()} }

// inspectNode asks storage node i alone for kind k.
func inspectNode[A, B any](c *Cluster, i int, k pfs.Kind[A, B], args A) (B, error) {
	var zero B
	if i < 0 || i >= len(c.dataServers) {
		return zero, fmt.Errorf("dosas: no storage node %d", i)
	}
	answers, err := pfs.Sweep(nil, []pfs.Target{c.dataServers[i].Inspector().Target()}, k, args)
	if err != nil {
		return zero, err
	}
	if len(answers) == 0 {
		return zero, fmt.Errorf("dosas: storage node %d serves no %s", i, k.Name)
	}
	return answers[0].Body, nil
}

// TraceEvents returns storage node i's retained lifecycle events in
// chronological order.
func (c *Cluster) TraceEvents(node int) ([]TraceEvent, error) {
	body, err := inspectNode(c, node, pfs.InspectTrace, pfs.TraceArgs{})
	return body.Events, err
}

// statsOf collects every node's metric snapshot, keyed by node name.
func statsOf(n nodes) (map[string]StatsSnapshot, error) {
	answers, err := pfs.Sweep(n.pool, n.targets, pfs.InspectStats, pfs.NoArgs{})
	out := make(map[string]StatsSnapshot, len(answers))
	for _, a := range pfs.Live(answers) {
		out[a.Node] = a.Body.Stats
	}
	return out, err
}

// Stats returns every node's metric snapshot, keyed by node name
// ("meta", "data-0", …) — the cluster-wide aggregate view of what each
// server has counted.
func (c *Cluster) Stats() map[string]StatsSnapshot {
	out, _ := statsOf(c.nodes())
	return out
}

// Stats fetches every node's metric snapshot over the wire, keyed by
// the name each node reports. Unreachable nodes are skipped (they
// surface in Health); failed answers are reported.
func (fs *FS) Stats() (map[string]StatsSnapshot, error) { return statsOf(fs.nodes()) }

// timelineOf stitches one distributed trace's events across every node
// that keeps a trace ring.
func timelineOf(n nodes, traceID uint64) ([]TraceEvent, error) {
	answers, err := pfs.Sweep(n.pool, n.targets, pfs.InspectTrace, pfs.TraceArgs{TraceID: traceID})
	sets := make([][]TraceEvent, 0, len(answers))
	for _, a := range pfs.Live(answers) {
		sets = append(sets, a.Body.Events)
	}
	return StitchTimeline(sets...), err
}

// TraceTimeline stitches the storage-side events of one distributed
// trace across every node into a single chronological timeline. Client
// recorders are not visible to the cluster; merge FS.TraceEvents output
// with StitchTimeline for the complete picture.
func (c *Cluster) TraceTimeline(traceID uint64) []TraceEvent {
	evs, _ := timelineOf(c.nodes(), traceID)
	return evs
}

// TraceTimeline is Cluster.TraceTimeline over the wire. Unreachable
// nodes are skipped; failed answers are reported.
func (fs *FS) TraceTimeline(traceID uint64) ([]TraceEvent, error) {
	return timelineOf(fs.nodes(), traceID)
}

// TraceEvents returns this client's retained lifecycle events (issues,
// responses, transfers, local kernel executions), in chronological order.
func (fs *FS) TraceEvents() []TraceEvent {
	return fs.asc.Trace().Snapshot()
}

// FilterTrace keeps only the events of one distributed trace.
func FilterTrace(evs []TraceEvent, traceID uint64) []TraceEvent {
	var out []TraceEvent
	for _, e := range evs {
		if e.TraceID == traceID {
			out = append(out, e)
		}
	}
	return out
}

// FilterRequest keeps only the events of one wire-level request id.
func FilterRequest(evs []TraceEvent, reqID uint64) []TraceEvent {
	var out []TraceEvent
	for _, e := range evs {
		if e.ReqID == reqID {
			out = append(out, e)
		}
	}
	return out
}

// StitchTimeline merges per-node event sets into one timeline ordered by
// wall-clock time (ties broken by node, then sequence number). All nodes
// of an in-process or single-host cluster share a clock, so the order is
// faithful; across real hosts it is as good as their clock sync.
func StitchTimeline(sets ...[]TraceEvent) []TraceEvent {
	var out []TraceEvent
	for _, s := range sets {
		out = append(out, s...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if !out[i].Time.Equal(out[j].Time) {
			return out[i].Time.Before(out[j].Time)
		}
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// FormatTimeline renders a stitched timeline one event per line, with
// the recording node called out so cross-node flow reads top to bottom.
func FormatTimeline(evs []TraceEvent) string {
	var sb strings.Builder
	for _, e := range evs {
		node := e.Node
		if node == "" {
			node = "?"
		}
		fmt.Fprintf(&sb, "%s %-8s%s\n", e.Time.Format("15:04:05.000"), node, trace.FormatEvent(e))
	}
	return sb.String()
}

// DecisionMetrics aggregates the scheduling decisions a cluster's
// storage nodes made — the per-scheme numbers the paper's evaluation
// turns on: how often work bounced back to compute nodes, how often
// running kernels were interrupted, and how accurate the Contention
// Estimator's kernel-cost forecasts were.
type DecisionMetrics struct {
	Arrivals    int64 `json:"arrivals"`
	Completed   int64 `json:"completed"`
	Bounced     int64 `json:"bounced"`
	Interrupted int64 `json:"interrupted"`
	Migrated    int64 `json:"migrated"`
	// BounceRate is Bounced/Arrivals (0 when no arrivals).
	BounceRate float64 `json:"bounce_rate"`
	// InterruptRate is Interrupted/Arrivals (0 when no arrivals).
	InterruptRate float64 `json:"interrupt_rate"`
	// EstimatorSamples counts kernel completions with a forecast.
	EstimatorSamples int64 `json:"estimator_samples"`
	// EstimatorErrPct is the mean |actual−predicted|/predicted error of
	// the estimator's kernel-cost forecasts, in percent, weighted across
	// nodes by sample count.
	EstimatorErrPct float64 `json:"estimator_err_pct"`
	// EstimatorErrPctP99 is the worst node's 99th-percentile error.
	EstimatorErrPctP99 float64 `json:"estimator_err_pct_p99"`
}

// DecisionMetrics aggregates scheduling-decision counters across all
// storage nodes.
func (c *Cluster) DecisionMetrics() DecisionMetrics {
	answers, _ := pfs.Sweep(nil, c.nodes().targets, pfs.InspectStats, pfs.NoArgs{})
	snaps := make([]StatsSnapshot, 0, len(answers))
	for _, a := range pfs.Live(answers) {
		snaps = append(snaps, a.Body.Stats)
	}
	return AggregateDecisions(snaps)
}

// HealthCheck is one named readiness check inside a node's health
// report (queue saturation, memory pressure, journal, …).
type HealthCheck = telemetry.Check

// HealthReport is one node's liveness and per-resource readiness, as
// served by the "health" inspect kind. Ready is the conjunction of its
// checks.
type HealthReport = telemetry.HealthReport

// SeriesPoint is one sampled (time, value) pair of a telemetry series.
type SeriesPoint = telemetry.Point

// Series is one named telemetry time series — a window of a node's
// ring-buffered samples (queue depth, bounce rate, throughput, …).
type Series = telemetry.Series

// SlowBundle is one slow-request diagnostic capture: the stitched
// cross-node timeline, disposition, and telemetry window of a ReadEx
// that tripped the client's slow detector.
type SlowBundle = telemetry.Bundle

// FormatSlowBundle renders a bundle as the multi-line report dosasctl
// slow prints.
func FormatSlowBundle(b SlowBundle) string { return telemetry.FormatBundle(b) }

// ReadSlowBundles loads the bundles a client persisted under dir (see
// ClientOptions.SlowDir), oldest first — how dosasctl slow inspects
// another process's flight journal.
func ReadSlowBundles(dir string) ([]SlowBundle, error) { return telemetry.ReadBundles(dir) }

// healthOf reports every node's health, in sweep order. A node that
// could not be asked gets a synthetic not-ready report with a failing
// "reachable" check rather than an error: a health sweep of a degraded
// cluster must not itself fail.
func healthOf(n nodes) []HealthReport {
	answers, _ := pfs.Sweep(n.pool, n.targets, pfs.InspectHealth, pfs.NoArgs{})
	out := make([]HealthReport, 0, len(answers))
	for _, a := range answers {
		if a.Err != nil {
			a.Body = HealthReport{Node: a.Name, Role: a.Role,
				Checks: []HealthCheck{{Name: "reachable", OK: false, Detail: a.Err.Error()}}}
		}
		out = append(out, a.Body)
	}
	return out
}

// Health reports every node's liveness and per-resource readiness —
// metadata server first, then storage nodes in layout order — through
// the same providers that answer dosasctl health on the wire.
func (c *Cluster) Health() []HealthReport { return healthOf(c.nodes()) }

// Health sweeps every node of the connected cluster over the wire and
// reports liveness plus per-resource readiness. Unreachable nodes come
// back as not-ready reports with a failing "reachable" check.
func (fs *FS) Health() []HealthReport { return healthOf(fs.nodes()) }

// seriesOf collects every node's telemetry history, keyed by the name
// each node reports. Nodes without a sampler serve no series.
func seriesOf(n nodes, window time.Duration, names []string) (map[string][]Series, error) {
	answers, err := pfs.Sweep(n.pool, n.targets, pfs.InspectSeries, pfs.SeriesArgs{WindowNano: int64(window), Names: names})
	out := make(map[string][]Series, len(answers))
	for _, a := range pfs.Live(answers) {
		out[a.Node] = a.Body.Series
	}
	return out, err
}

// Series returns the trailing window of every node's telemetry history,
// keyed by node name ("meta", "data-0", …). Nodes without a sampler
// (Options.TelemetryTick < 0) are omitted. window ≤ 0 means the full
// retained history.
func (c *Cluster) Series(window time.Duration) map[string][]Series {
	out, _ := seriesOf(c.nodes(), window, nil)
	return out
}

// Series fetches the trailing window of every node's telemetry history
// over the wire, keyed by node name. names, when given, restrict the
// fetch to those series. Unreachable nodes are skipped (they surface in
// Health); failed answers are reported.
func (fs *FS) Series(window time.Duration, names ...string) (map[string][]Series, error) {
	return seriesOf(fs.nodes(), window, names)
}

// ClientSeries returns the trailing window of this client's own
// telemetry history (pending requests, shipped-bytes rate, bounce
// rate), or nil when client telemetry is disabled.
func (fs *FS) ClientSeries(window time.Duration) []Series {
	if s := fs.asc.Telemetry(); s != nil {
		return s.Snapshot(window)
	}
	return nil
}

// SlowBundles returns the flight recorder's journaled slow-request
// bundles, oldest first. Empty unless the client was connected with
// SlowThreshold or SlowFactor set.
func (fs *FS) SlowBundles() []SlowBundle { return fs.asc.SlowBundles() }

// Event is one structured operational event: a leveled, timestamped
// message with ordered key/value fields, emitted by a node subsystem
// (runtime, meta, slo) into its bounded in-memory ring.
type Event = eventlog.Event

// EventField is one ordered key/value pair of an event's structured
// context.
type EventField = eventlog.Field

// EventLevel is an event's severity (debug, info, warn, error).
type EventLevel = eventlog.Level

// Event severity levels.
const (
	EventDebug = eventlog.Debug
	EventInfo  = eventlog.Info
	EventWarn  = eventlog.Warn
	EventError = eventlog.Error
)

// ParseEventLevel parses a level name ("debug", "info", "warn",
// "error").
func ParseEventLevel(s string) (EventLevel, error) { return eventlog.ParseLevel(s) }

// FormatEvent renders one event as the single line dosasctl events
// prints.
func FormatEvent(ev Event) string { return eventlog.FormatEvent(ev) }

// MergeEvents interleaves per-node event sets into one timeline ordered
// by wall-clock time (ties broken by node, then sequence).
func MergeEvents(byNode ...[]Event) []Event { return eventlog.Merge(byNode...) }

// SLORule is one declarative alert rule (threshold, rate-of-change, or
// multi-window burn-rate) evaluated against a node's telemetry rings.
type SLORule = slo.Rule

// DefaultSLORules returns the built-in rule set every node evaluates
// when no -slo-rules file overrides it.
func DefaultSLORules() []SLORule { return slo.DefaultRules() }

// LoadSLORules reads a JSON rule file (see internal/slo for the
// schema), validating every rule.
func LoadSLORules(path string) ([]SLORule, error) { return slo.LoadRules(path) }

// ParseSLORules parses and validates a JSON rule list.
func ParseSLORules(data []byte) ([]SLORule, error) { return slo.ParseRules(data) }

// Alert is the live state of one rule on one node: inactive, pending
// (breaching but inside its dwell), firing, or resolved.
type Alert = slo.Alert

// AlertState is one rule's lifecycle position.
type AlertState = slo.State

// Alert lifecycle states.
const (
	AlertInactive = slo.StateInactive
	AlertPending  = slo.StatePending
	AlertFiring   = slo.StateFiring
	AlertResolved = slo.StateResolved
)

// FormatAlerts renders alerts as the aligned table dosasctl alerts
// prints.
func FormatAlerts(alerts []Alert) string { return slo.FormatAlerts(alerts) }

// Events returns the cluster's merged event timeline — every node's
// retained events at or above min, interleaved by time. limit > 0 keeps
// only the newest limit events per node before merging.
func (c *Cluster) Events(min EventLevel, limit int) []Event {
	pages, _ := eventsOf(c.nodes(), nil, min, limit)
	sets := make([][]Event, 0, len(pages))
	for _, p := range pages {
		sets = append(sets, p.Events)
	}
	return MergeEvents(sets...)
}

// alertsOf collects every node's alert table, in sweep order.
func alertsOf(n nodes) ([]Alert, error) {
	answers, err := pfs.Sweep(n.pool, n.targets, pfs.InspectAlerts, pfs.NoArgs{})
	var out []Alert
	for _, a := range pfs.Live(answers) {
		for _, al := range a.Body {
			if al.Node == "" {
				al.Node = a.Name
			}
			out = append(out, al)
		}
	}
	return out, err
}

// Alerts returns every node's current alert table, metadata server
// first, then storage nodes in layout order. Nodes without an engine
// (telemetry disabled) contribute nothing.
func (c *Cluster) Alerts() []Alert {
	out, _ := alertsOf(c.nodes())
	return out
}

// EventsPage is one node's slice of the event tail, with the cursor to
// resume tailing from and how many ring entries have been overwritten
// since the node started. Node is the client layout name, matching the
// key of the since map passed to Events; individual events carry the
// emitting daemon's own node name.
type EventsPage struct {
	Node    string
	Events  []Event
	NextSeq uint64
	Dropped uint64
}

// eventsOf tails every node's event ring from its cursor in since.
// Each node resumes from its own cursor, so each gets its own sweep.
func eventsOf(n nodes, since map[string]uint64, min EventLevel, limit int) ([]EventsPage, error) {
	var out []EventsPage
	var errs []error
	for _, t := range n.targets {
		args := pfs.EventArgs{SinceSeq: since[t.Name], Limit: uint64(max(limit, 0)), MinLevel: uint8(min)}
		answers, err := pfs.Sweep(n.pool, []pfs.Target{t}, pfs.InspectEvents, args)
		errs = append(errs, err)
		for _, a := range pfs.Live(answers) {
			out = append(out, EventsPage{Node: a.Name, Events: a.Body.Events, NextSeq: a.Body.NextSeq, Dropped: a.Body.Dropped})
		}
	}
	return out, errors.Join(errs...)
}

// Events fetches each node's retained events over the wire. since maps
// node name to the sequence cursor returned by a previous sweep (nil or
// a missing key fetches from the start of the ring); min filters by
// level and limit > 0 keeps only the newest limit events per node.
// Unreachable nodes are skipped (they surface in Health); failed
// answers are reported. Each page's cursor is read in the same instant
// as its events, so a follow loop feeding NextSeq-1 back never skips
// one.
func (fs *FS) Events(since map[string]uint64, min EventLevel, limit int) ([]EventsPage, error) {
	return eventsOf(fs.nodes(), since, min, limit)
}

// Alerts fetches every node's current alert table over the wire, in
// sweep order. Unreachable nodes are skipped (they surface in Health);
// failed answers are reported.
func (fs *FS) Alerts() ([]Alert, error) { return alertsOf(fs.nodes()) }

// AggregateDecisions computes cluster-wide decision metrics from
// per-node snapshots (local registries or swept stats alike).
func AggregateDecisions(snaps []StatsSnapshot) DecisionMetrics {
	var m DecisionMetrics
	var errSum float64
	for _, s := range snaps {
		m.Arrivals += s.Counter("active.arrivals")
		m.Completed += s.Counter("active.completed")
		m.Bounced += s.Counter("active.rejected") +
			s.Counter("active.rejected_memory") +
			s.Counter("active.bounced_queued")
		m.Interrupted += s.Counter("active.interrupted")
		m.Migrated += s.Counter("active.migrated")
		if h, ok := s.Histograms["est.kernel_error_pct"]; ok && h.Count > 0 {
			m.EstimatorSamples += h.Count
			errSum += h.Mean * float64(h.Count)
			if h.P99 > m.EstimatorErrPctP99 {
				m.EstimatorErrPctP99 = h.P99
			}
		}
	}
	if m.Arrivals > 0 {
		m.BounceRate = float64(m.Bounced) / float64(m.Arrivals)
		m.InterruptRate = float64(m.Interrupted) / float64(m.Arrivals)
	}
	if m.EstimatorSamples > 0 {
		m.EstimatorErrPct = errSum / float64(m.EstimatorSamples)
	}
	return m
}
