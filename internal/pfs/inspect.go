package pfs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"dosas/internal/audit"
	"dosas/internal/eventlog"
	"dosas/internal/metrics"
	"dosas/internal/slo"
	"dosas/internal/telemetry"
	"dosas/internal/tenant"
	"dosas/internal/trace"
	"dosas/internal/tsdb"
	"dosas/internal/wire"
)

// Kind names one inspect provider and fixes its argument and body
// types, so a sweep and the provider it reaches agree at compile time.
type Kind[A, B any] struct{ Name string }

// NoArgs is the argument type of kinds that take none.
type NoArgs struct{}

// The inspect kinds. Every node serves stats and health; the others
// are served by the nodes whose source is attached (a metadata server
// has no trace ring, decision log or tenant table, a node without a
// sampler has no series), and any other node answers ErrUnsupported.
var (
	InspectStats     = Kind[NoArgs, StatsBody]{"stats"}
	InspectHealth    = Kind[NoArgs, telemetry.HealthReport]{"health"}
	InspectTrace     = Kind[TraceArgs, TraceBody]{"trace"}
	InspectSeries    = Kind[SeriesArgs, SeriesBody]{"series"}
	InspectDecisions = Kind[DecisionArgs, DecisionBody]{"decisions"}
	InspectEvents    = Kind[EventArgs, eventlog.Page]{"events"}
	InspectAlerts    = Kind[NoArgs, []slo.Alert]{"alerts"}
	InspectTenants   = Kind[NoArgs, TenantBody]{"tenants"}
	InspectQuery     = Kind[QueryArgs, QueryBody]{"query"}
)

// StatsBody is a node's metric snapshot plus, for a data node with an
// active runtime, its scheduling mode ("dosas", "as", "ts").
type StatsBody struct {
	Mode  string           `json:"mode,omitempty"`
	Stats metrics.Snapshot `json:"stats"`
}

// TraceArgs filters the trace ring to one distributed trace or, failing
// that, one request id; both zero means the whole ring.
type TraceArgs struct {
	ReqID   uint64 `json:"req_id,omitempty"`
	TraceID uint64 `json:"trace_id,omitempty"`
}

// TraceBody is the matching trace events plus how many events the ring
// has overwritten (non-zero means a timeline may be incomplete).
type TraceBody struct {
	Events  []trace.Event `json:"events"`
	Dropped uint64        `json:"dropped,omitempty"`
}

// SeriesArgs restricts the sampler history to the trailing window
// (<= 0 means all retained) and to the named series (empty means all).
type SeriesArgs struct {
	WindowNano int64    `json:"window_nano,omitempty"`
	Names      []string `json:"names,omitempty"`
}

// SeriesBody is the matching history, the sampler's tick, and how many
// samples its rings have overwritten since boot.
type SeriesBody struct {
	Series   []telemetry.Series `json:"series"`
	TickNano int64              `json:"tick_nano,omitempty"`
	Dropped  uint64             `json:"dropped,omitempty"`
}

// DecisionArgs restricts the decision log to records whose batch
// involved TraceID (0 means all), then to the trailing Limit (0 means
// all).
type DecisionArgs struct {
	Limit   uint64 `json:"limit,omitempty"`
	TraceID uint64 `json:"trace_id,omitempty"`
}

// DecisionBody is the matching decision records plus how many records
// the ring has overwritten since boot.
type DecisionBody struct {
	Records []audit.Record `json:"records"`
	Dropped uint64         `json:"dropped,omitempty"`
}

// EventArgs tails the event ring: events after SinceSeq, at or above
// MinLevel, at most the Limit newest (0 means all).
type EventArgs struct {
	SinceSeq uint64 `json:"since_seq,omitempty"`
	Limit    uint64 `json:"limit,omitempty"`
	MinLevel uint8  `json:"min_level,omitempty"`
}

// TenantBody is a node's tenant table plus how many tenants have been
// folded into the tenant.Evicted row.
type TenantBody struct {
	Evicted uint64         `json:"evicted,omitempty"`
	Usage   []tenant.Usage `json:"usage"`
}

// QueryArgs asks the durable archive for one series over a wall-clock
// window, reduced to per-step bucket means when StepNano > 0.
type QueryArgs struct {
	Name     string `json:"name"`
	FromNano int64  `json:"from_nano,omitempty"`
	ToNano   int64  `json:"to_nano,omitempty"`
	StepNano int64  `json:"step_nano,omitempty"`
}

// QueryBody is the archived points plus the archive's retention horizon
// (0 when empty), so a client can tell "no data in the window" from
// "the window predates retention".
type QueryBody struct {
	Points       []telemetry.Point `json:"points,omitempty"`
	EarliestNano int64             `json:"earliest_nano,omitempty"`
}

// Inspector is one node's inspect registry: the providers its
// subsystems attach, served over the wire for wire.InspectReq and
// called in-process, typed and without JSON, by Sweep. Providers are
// registered while the node is built and never after it serves.
type Inspector struct {
	node, role string
	kinds      map[string]provider
}

// provider is one registered kind: the typed function for in-process
// calls and its JSON adapter for the wire.
type provider struct {
	typed any // func(A) (B, error)
	wire  func(args []byte) ([]byte, error)
}

// newInspector returns an empty registry for a node.
func newInspector(node, role string) *Inspector {
	return &Inspector{node: node, role: role, kinds: make(map[string]provider)}
}

// Target is this node as a sweep target reached in-process.
func (in *Inspector) Target() Target {
	return Target{Name: in.node, Role: in.role, Local: in}
}

// provide registers serve as in's provider for kind k.
func provide[A, B any](in *Inspector, k Kind[A, B], serve func(A) (B, error)) {
	in.kinds[k.Name] = provider{typed: serve, wire: func(raw []byte) ([]byte, error) {
		var args A
		if err := decodeArgs(raw, &args); err != nil {
			return nil, fmt.Errorf("%w: inspect %s args: %v", ErrInvalid, k.Name, err)
		}
		body, err := serve(args)
		if err != nil {
			return nil, err
		}
		js, err := json.Marshal(body)
		if err != nil {
			return nil, fmt.Errorf("%w: encoding %s: %v", ErrInvalid, k.Name, err)
		}
		return js, nil
	}}
}

// decodeArgs parses a wire argument object strictly: the bytes come
// from the network, so unknown fields, trailing data and anything but
// one JSON object are rejected rather than ignored. Empty means the
// zero arguments.
func decodeArgs(raw []byte, v any) error {
	if len(raw) == 0 {
		return nil
	}
	if raw = bytes.TrimSpace(raw); len(raw) == 0 || raw[0] != '{' {
		return errors.New("want a JSON object")
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the argument object")
	}
	return nil
}

// serve answers one InspectReq from the registry.
func (in *Inspector) serve(req *wire.InspectReq) (wire.Message, error) {
	p, ok := in.kinds[req.Kind]
	if !ok {
		return nil, fmt.Errorf("%w: %s node serves no %q inspect kind", ErrUnsupported, in.role, req.Kind)
	}
	body, err := p.wire(req.Args)
	if err != nil {
		return nil, err
	}
	return &wire.InspectResp{Node: in.node, Role: in.role, Body: body}, nil
}

// call runs kind k's provider in-process.
func call[A, B any](in *Inspector, k Kind[A, B], args A) (B, error) {
	var zero B
	p, ok := in.kinds[k.Name]
	if !ok {
		return zero, fmt.Errorf("%w: %s node serves no %q inspect kind", ErrUnsupported, in.role, k.Name)
	}
	// Kind fixes A and B for its name, so the assertion cannot fail.
	return p.typed.(func(A) (B, error))(args)
}

// isUnsupported reports whether err means the node has no provider for
// the request, local or remote.
func isUnsupported(err error) bool {
	if errors.Is(err, ErrUnsupported) {
		return true
	}
	var re *RemoteError
	return errors.As(err, &re) && re.Code == wire.StatusUnsupported
}

// Target is one node a sweep asks: in-process through Local when set,
// else over the wire at Addr.
type Target struct {
	// Name is the node's layout name ("meta", "data-0", …).
	Name string
	// Role is "meta" or "data"; it labels the report of a node that
	// could not be asked.
	Role  string
	Addr  string
	Local *Inspector
}

// Targets lists a cluster's nodes in sweep order: the metadata server,
// then the storage nodes in layout order.
func Targets(metaAddr string, dataAddrs []string) []Target {
	out := []Target{{Name: "meta", Role: "meta", Addr: metaAddr}}
	for i, addr := range dataAddrs {
		out = append(out, Target{Name: fmt.Sprintf("data-%d", i), Role: "data", Addr: addr})
	}
	return out
}

// Answer is one node's reply to a sweep.
type Answer[B any] struct {
	Target
	// Node is the name the node reports for itself (a daemon's
	// configured identity), or Target.Name when it did not answer.
	Node string
	Body B
	// Err is set when the node could not be asked or its reply was
	// unusable; Body is then zero.
	Err error
}

// Sweep asks every target for kind k, in target order, and applies the
// plane's partial-failure rules once for every caller:
//   - a node with no provider for k is left out, so no caller needs to
//     know which roles serve which kinds;
//   - a node that cannot be reached is kept with Err set: a health
//     sweep reports it as not ready, every other caller skips it;
//   - a node that was reached but failed the request or sent a body
//     that does not decode is kept with Err set too, and its error is
//     also returned, joined with the others, for the caller to surface.
//
// pool may be nil when every target is local.
func Sweep[A, B any](pool *Pool, targets []Target, k Kind[A, B], args A) ([]Answer[B], error) {
	var raw []byte
	out := make([]Answer[B], 0, len(targets))
	var errs []error
	for _, t := range targets {
		a := Answer[B]{Target: t, Node: t.Name}
		reached := true
		if t.Local != nil {
			a.Body, a.Err = call(t.Local, k, args)
		} else {
			if raw == nil {
				var err error
				if raw, err = json.Marshal(args); err != nil {
					return nil, fmt.Errorf("%w: encoding %s args: %v", ErrInvalid, k.Name, err)
				}
			}
			reached, a.Err = ask(pool, t.Addr, k.Name, raw, &a)
		}
		switch {
		case a.Err == nil:
		case isUnsupported(a.Err):
			continue
		case reached:
			errs = append(errs, fmt.Errorf("%s: %w", t.Name, a.Err))
		}
		out = append(out, a)
	}
	return out, errors.Join(errs...)
}

// ask sends one InspectReq over the wire and decodes the reply into a.
// reached reports whether the node answered at all.
func ask[B any](pool *Pool, addr, kind string, args []byte, a *Answer[B]) (reached bool, err error) {
	resp, err := pool.Call(addr, &wire.InspectReq{Kind: kind, Args: args})
	if err != nil {
		var re *RemoteError
		return errors.As(err, &re), err
	}
	ir, ok := resp.(*wire.InspectResp)
	if !ok {
		return true, fmt.Errorf("pfs: unexpected inspect response %v", resp.Type())
	}
	if ir.Node != "" {
		a.Node = ir.Node
	}
	if err := json.Unmarshal(ir.Body, &a.Body); err != nil {
		return true, fmt.Errorf("pfs: decoding %s body: %w", kind, err)
	}
	return true, nil
}

// Live returns the answers of the nodes that replied.
func Live[B any](answers []Answer[B]) []Answer[B] {
	out := answers[:0:0]
	for _, a := range answers {
		if a.Err == nil {
			out = append(out, a)
		}
	}
	return out
}

// provideTelemetry registers the kinds every node serves from its
// telemetry stack, each only when its source is attached.
func provideTelemetry(in *Inspector, s *telemetry.Sampler, l *eventlog.Log, e *slo.Engine, a *tsdb.Archive) {
	if s != nil {
		provide(in, InspectSeries, func(q SeriesArgs) (SeriesBody, error) {
			window := time.Duration(q.WindowNano)
			body := SeriesBody{TickNano: int64(s.Interval()), Dropped: s.Dropped()}
			if len(q.Names) == 0 {
				body.Series = s.Snapshot(window)
			}
			for _, name := range q.Names {
				if ser, ok := s.Get(name, window); ok {
					body.Series = append(body.Series, ser)
				}
			}
			return body, nil
		})
	}
	if l != nil {
		// Tail reads the events, the resume cursor and the drop count
		// under one lock, so a follower never skips an event logged
		// between them.
		provide(in, InspectEvents, func(q EventArgs) (eventlog.Page, error) {
			return l.Tail(q.SinceSeq, eventlog.Level(q.MinLevel), int(q.Limit)), nil
		})
	}
	if e != nil {
		provide(in, InspectAlerts, func(NoArgs) ([]slo.Alert, error) { return e.Alerts(), nil })
	}
	if a != nil {
		provide(in, InspectQuery, func(q QueryArgs) (QueryBody, error) {
			points, err := a.Query(q.Name, q.FromNano, q.ToNano)
			if err != nil {
				return QueryBody{}, fmt.Errorf("%w: archive query: %v", ErrInvalid, err)
			}
			return QueryBody{Points: telemetry.Downsample(points, q.StepNano), EarliestNano: a.Earliest()}, nil
		})
	}
}

// healthReport summarises a node's checks into its health report.
func healthReport(node, role string, checks []telemetry.Check, started time.Time) telemetry.HealthReport {
	return telemetry.HealthReport{
		Node: node, Role: role, Checks: checks,
		UptimeNano: time.Since(started).Nanoseconds(),
	}.Summarize()
}
