package pfs

import (
	"fmt"
	"sync/atomic"
	"time"

	"dosas/internal/audit"
	"dosas/internal/eventlog"
	"dosas/internal/ioqueue"
	"dosas/internal/metrics"
	"dosas/internal/slo"
	"dosas/internal/telemetry"
	"dosas/internal/tenant"
	"dosas/internal/trace"
	"dosas/internal/tsdb"
	"dosas/internal/wire"
)

// ActiveHandler is the extension point through which the core package
// plugs active-storage processing into a data server. A plain data server
// (no active runtime attached) rejects active requests with
// wire.StatusUnsupported, which clients treat as "always bounce" —
// degrading gracefully to traditional storage.
type ActiveHandler interface {
	// HandleActive services one active read; it may block for the full
	// duration of kernel execution.
	HandleActive(req *wire.ActiveReadReq) (*wire.ActiveReadResp, error)
	// HandleProbe reports current load for the Contention Estimator.
	HandleProbe() (*wire.ProbeResp, error)
	// HandleCancel withdraws a queued or running active request.
	HandleCancel(req *wire.CancelReq) (*wire.CancelResp, error)
	// HandleTransform runs a kernel over local data and writes the
	// output locally (active write-back).
	HandleTransform(req *wire.TransformReq) (*wire.TransformResp, error)
}

// DataConfig configures a data server.
type DataConfig struct {
	// Store backs the server's stripe streams; required.
	Store Store
	// Metrics receives operation counters; optional.
	Metrics *metrics.Registry
	// Node is this server's identity in stats and trace exports (e.g.
	// "data-0"). Optional.
	Node string
	// Trace is the node's lifecycle-event ring, served as the "trace"
	// inspect kind. Usually shared with the attached active runtime.
	// Optional.
	Trace *trace.Recorder
	// Telemetry is the node's time-series sampler, served as the
	// "series" inspect kind. Usually shared with (and owned by) the
	// attached active runtime. Optional.
	Telemetry *telemetry.Sampler
	// Audit is the node's scheduling-decision ring, served as the
	// "decisions" inspect kind. Usually shared with (and written by) the
	// attached active runtime. Optional.
	Audit *audit.Log
	// Events is the node's structured event log, served as the "events"
	// inspect kind. Usually shared with the attached active runtime.
	// Optional.
	Events *eventlog.Log
	// SLO is the node's alert engine, served as the "alerts" inspect
	// kind and contributing readiness checks to "health". Optional.
	SLO *slo.Engine
	// Tenants is the node's per-tenant usage table, fed by the normal
	// I/O handlers and served as the "tenants" inspect kind. Usually
	// shared with the attached active runtime. Optional: nil disables
	// attribution.
	Tenants *tenant.Table
	// Archive is the node's durable telemetry archive, served as the
	// "query" inspect kind. Owned by the daemon wiring (it hooks the
	// sampler and closes it); nil when the node runs without
	// -archive-dir.
	Archive *tsdb.Archive
	// QoS, when non-nil, gates every read and write through a
	// weighted-fair admission queue (see QoSGate). Nil disables
	// enforcement: requests serve in arrival order, as before.
	QoS *QoSConfig
}

// DataServer is one storage node's I/O service: it stores the server-local
// byte streams of striped files and forwards active-storage requests to an
// attached ActiveHandler.
type DataServer struct {
	store   Store
	reg     *metrics.Registry
	node    string
	tenants *tenant.Table
	inspect *Inspector
	// active is the attached runtime (an ActiveHandler), behind an
	// atomic: the telemetry sampler's qos.* probes read it from their
	// own goroutine, and cluster wiring attaches the runtime after the
	// sampler has already started ticking.
	active atomic.Value

	// Zero-copy read path state: ranger is the store's RangeReader side
	// (nil for MemStore), wireStats is shared with every framing writer
	// of this server and mirrored into reg by stats().
	ranger    RangeReader
	wireStats wire.FrameStats

	// QoS enforcement: gate admits reads/writes in weighted-fair order
	// (nil = disabled), cancels tracks in-flight normal reads by ReqID.
	gate    *QoSGate
	cancels cancelRegistry
}

// qosStatser lets the data server fold an attached runtime's queue QoS
// counters into the node's qos.* telemetry without importing core.
type qosStatser interface {
	QoSStats() ioqueue.Stats
}

// NewDataServer builds a data server over cfg.Store.
func NewDataServer(cfg DataConfig) (*DataServer, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("%w: data server needs a store", ErrInvalid)
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	ds := &DataServer{
		store: cfg.Store, reg: cfg.Metrics, node: cfg.Node, tenants: cfg.Tenants,
		inspect: newInspector(cfg.Node, "data"),
	}
	ds.provideInspect(cfg)
	ds.ranger, _ = cfg.Store.(RangeReader)
	if cfg.QoS != nil {
		ds.gate = NewQoSGate(*cfg.QoS)
		ds.gate.SetTenants(cfg.Tenants)
	}
	if s := cfg.Telemetry; s != nil && ds.gate != nil {
		// Weighted-fair QoS activity, node-wide: the admission gate's
		// queue plus (when a runtime is attached) the active queue.
		// qos.throttled is heads-deferred-for-credit per second — the
		// shaping actually biting; qos.deficit is banked credit in bytes.
		s.Register("qos.throttled", telemetry.RateProbe(func() float64 {
			return float64(ds.qosStats().Throttled)
		}, s.Interval()))
		s.Register("qos.deficit", func() float64 {
			return float64(ds.qosStats().DeficitBytes)
		})
		s.Register("qos.queued", func() float64 {
			st := ds.gate.Stats()
			return float64(st.NormalLen + st.MetaLen + st.ActiveLen)
		})
	}
	if s := cfg.Telemetry; s != nil && ds.ranger != nil {
		// How a disk-backed node's read bytes leave it: kernel-moved
		// (sendfile) vs staged through user space (pooled copies,
		// inline encodes). Memory-backed nodes skip the series — they
		// have no zero-copy path to observe.
		s.Register("zerocopy.sendfile.bps", telemetry.RateProbe(func() float64 {
			return float64(ds.wireStats.SendfileBytes.Load())
		}, s.Interval()))
		s.Register("zerocopy.copied.bps", telemetry.RateProbe(func() float64 {
			return float64(ds.wireStats.CopiedBytes.Load() + ds.reg.Counter("data.bytes_copied").Value())
		}, s.Interval()))
	}
	return ds, nil
}

// qosStats sums the admission gate's queue counters with an attached
// runtime's, so one telemetry series covers the whole node.
func (ds *DataServer) qosStats() ioqueue.Stats {
	st := ds.gate.Stats()
	if qs, ok := ds.activeHandler().(qosStatser); ok {
		rt := qs.QoSStats()
		st.Throttled += rt.Throttled
		st.DeficitBytes += rt.DeficitBytes
	}
	return st
}

// Gate exposes the admission gate (nil when QoS is disabled) — tests
// and the bench harness inspect its stats.
func (ds *DataServer) Gate() *QoSGate { return ds.gate }

// Close releases the admission gate's dispatcher. The server remains
// usable — subsequent requests are admitted immediately (fail open).
func (ds *DataServer) Close() { ds.gate.Close() }

// WireStats exposes the server's frame-transport counters; the RPC
// server shares this struct across every connection's framing writer.
func (ds *DataServer) WireStats() *wire.FrameStats { return &ds.wireStats }

// SetActiveHandler attaches the active-storage runtime. Must be called
// before the server starts handling requests.
func (ds *DataServer) SetActiveHandler(h ActiveHandler) { ds.active.Store(h) }

// activeHandler returns the attached runtime, or nil when none is.
func (ds *DataServer) activeHandler() ActiveHandler {
	h, _ := ds.active.Load().(ActiveHandler)
	return h
}

// Store exposes the backing store, for the active runtime to read stripes
// locally (the whole point of active storage: no network hop to the data).
func (ds *DataServer) Store() Store { return ds.store }

// Metrics returns the server's metric registry.
func (ds *DataServer) Metrics() *metrics.Registry { return ds.reg }

// Handle implements the Handler interface for wire messages.
func (ds *DataServer) Handle(msg wire.Message) (wire.Message, error) {
	switch req := msg.(type) {
	case *wire.Ping:
		return &wire.Pong{Seq: req.Seq}, nil
	case *wire.ReadReq:
		return ds.read(req)
	case *wire.WriteReq:
		return ds.write(req)
	case *wire.TruncReq:
		return ds.trunc(req)
	case *wire.ActiveReadReq:
		if h := ds.activeHandler(); h != nil {
			return h.HandleActive(req)
		}
		return nil, fmt.Errorf("%w: no active runtime attached", ErrUnsupported)
	case *wire.ProbeReq:
		if h := ds.activeHandler(); h != nil {
			return h.HandleProbe()
		}
		return &wire.ProbeResp{}, nil
	case *wire.CancelReq:
		return ds.cancel(req)
	case *wire.TransformReq:
		if h := ds.activeHandler(); h != nil {
			return h.HandleTransform(req)
		}
		return nil, fmt.Errorf("%w: no active runtime attached", ErrUnsupported)
	case *wire.LocalSizeReq:
		return &wire.LocalSizeResp{Size: ds.store.Size(req.Handle)}, nil
	case *wire.InspectReq:
		return ds.inspect.serve(req)
	default:
		return nil, fmt.Errorf("%w: data server got %v", ErrUnsupported, msg.Type())
	}
}

// Inspector returns the node's inspect registry.
func (ds *DataServer) Inspector() *Inspector { return ds.inspect }

// provideInspect registers the data node's inspect providers: stats and
// health always, every other kind only when its source is attached.
func (ds *DataServer) provideInspect(cfg DataConfig) {
	in, started := ds.inspect, time.Now()
	// The scheduling mode and per-resource health come from the active
	// handler without importing core (which imports pfs).
	provide(in, InspectStats, func(NoArgs) (StatsBody, error) {
		// The frame-transport counters are atomics on the framing hot
		// path, mirrored into the registry only when a snapshot is taken.
		for name, v := range map[string]int64{
			"wire.sendfile_bytes": ds.wireStats.SendfileBytes.Load(),
			"wire.writev_calls":   ds.wireStats.WritevCalls.Load(),
			"wire.copied_bytes":   ds.wireStats.CopiedBytes.Load(),
		} {
			if c := ds.reg.Counter(name); v > c.Value() {
				c.Add(v - c.Value())
			}
		}
		var body StatsBody
		if m, ok := ds.activeHandler().(interface{ ModeName() string }); ok {
			body.Mode = m.ModeName()
		}
		body.Stats = ds.reg.Snapshot()
		return body, nil
	})
	// The store is always checked and an attached runtime adds its
	// checks (queue saturation, estimator, memory). A plain data server
	// stays ready: it serves normal I/O, and clients already degrade
	// active requests to bounce.
	provide(in, InspectHealth, func(NoArgs) (telemetry.HealthReport, error) {
		checks := []telemetry.Check{{Name: "store", OK: true, Detail: "attached"}}
		if hc, ok := ds.activeHandler().(interface{ HealthChecks() []telemetry.Check }); ok {
			checks = append(checks, hc.HealthChecks()...)
		} else {
			checks = append(checks, telemetry.Check{Name: "active", OK: true, Detail: "no runtime attached"})
		}
		// Firing alerts fail readiness: an operator looking at health
		// sees which rule is breaching, not just a red light.
		checks = append(checks, cfg.SLO.Checks()...)
		if dropped := cfg.Telemetry.Dropped(); dropped > 0 {
			checks = append(checks, telemetry.Check{
				Name: "telemetry", OK: true,
				Detail: fmt.Sprintf("%d ring samples overwritten", dropped),
			})
		}
		return healthReport(ds.node, "data", checks, started), nil
	})
	if tr := cfg.Trace; tr != nil {
		provide(in, InspectTrace, func(q TraceArgs) (TraceBody, error) {
			body := TraceBody{Dropped: tr.Dropped()}
			switch {
			case q.TraceID != 0:
				body.Events = tr.HistoryTrace(q.TraceID)
			case q.ReqID != 0:
				body.Events = tr.History(q.ReqID)
			default:
				body.Events = tr.Snapshot()
			}
			return body, nil
		})
	}
	if l := cfg.Audit; l != nil {
		provide(in, InspectDecisions, func(q DecisionArgs) (DecisionBody, error) {
			body := DecisionBody{Records: l.Snapshot(), Dropped: l.Dropped()}
			if q.TraceID != 0 {
				body.Records = audit.FilterTrace(body.Records, q.TraceID)
			}
			if q.Limit > 0 {
				body.Records = audit.Last(body.Records, int(q.Limit))
			}
			return body, nil
		})
	}
	if tab := cfg.Tenants; tab != nil {
		provide(in, InspectTenants, func(NoArgs) (TenantBody, error) {
			return TenantBody{Evicted: tab.Evictions(), Usage: tab.Snapshot()}, nil
		})
	}
	provideTelemetry(in, cfg.Telemetry, cfg.Events, cfg.SLO, cfg.Archive)
}

// PostWrite implements the pfs.PostWriter hook: a read or write stays
// counted as in flight until its response has left the server, so the
// "data.inflight" pressure gauge covers the transfer time on slow links.
// It fires once per handled request, error responses included, keeping
// the gauge balanced with the increments in read and write. It is also
// where the read path's pooled buffer is recycled: the response frame is
// a copy of it, so once the frame has been written the buffer is free.
func (ds *DataServer) PostWrite(req, resp wire.Message) {
	switch r := req.(type) {
	case *wire.ReadReq:
		ds.reg.Gauge("data.inflight").Add(-1)
		if r.ReqID != 0 {
			ds.cancels.unregister(r.ReqID)
		}
	case *wire.WriteReq:
		ds.reg.Gauge("data.inflight").Add(-1)
	}
	if rr, ok := resp.(*wire.ReadResp); ok {
		if rr.PoolBuf != nil {
			wire.PutBuf(rr.PoolBuf)
			rr.PoolBuf = nil
		}
		if rr.Payload != nil {
			// Drops the payload's fd-cache references now that the frame
			// is on the wire (or has definitively failed).
			rr.Payload.Close() //nolint:errcheck // release-only
			rr.Payload = nil
		}
	}
}

// zeroCopyMin is the smallest read served by reference: below it the
// fixed cost of building a payload (fd-cache refs, extra writes for the
// frame head and tail) outweighs the saved copy.
const zeroCopyMin = 64 << 10

// cancel answers a CancelReq: normal-read registry first, then the
// active runtime. Hedge-tagged ids (HedgeIDBit) belong exclusively to
// the registry — an unknown one leaves a tombstone so the ReadReq it
// raced stops before serving (mux handlers dispatch concurrently, so
// the cancel can overtake its target).
func (ds *DataServer) cancel(req *wire.CancelReq) (wire.Message, error) {
	if ds.cancels.cancel(req.RequestID) {
		ds.reg.Counter("data.cancel").Inc()
		return &wire.CancelResp{Found: true}, nil
	}
	h := ds.activeHandler()
	if req.RequestID&HedgeIDBit != 0 || h == nil {
		return &wire.CancelResp{}, nil
	}
	return h.HandleCancel(req)
}

func (ds *DataServer) read(req *wire.ReadReq) (wire.Message, error) {
	ds.reg.Counter("data.read").Inc()
	ds.reg.Gauge("data.inflight").Add(1) // released by PostWrite
	var served uint64                    // bytes attributed to the caller's tenant
	defer func() {
		ds.tenants.Account(req.Tenant, func(s *tenant.Stats) { s.ReadOps++; s.BytesRead += served })
	}()
	// Cancellable read: register before the gate so a CancelReq can
	// withdraw the ticket while it queues. PostWrite unregisters.
	var cs *cancelState
	if req.ReqID != 0 {
		cs = ds.cancels.register(req.ReqID)
	}
	if ds.gate != nil {
		tk := ds.gate.Enqueue(ioqueue.Normal, req.Tenant, uint64(req.Length))
		if cs != nil {
			ds.cancels.attach(cs, tk, ds.gate)
		}
		if !tk.Wait() {
			ds.reg.Counter("data.read_cancelled").Inc()
			return nil, fmt.Errorf("read %d: %w", req.ReqID, ErrCancelled)
		}
		defer tk.Release()
	}
	if cs != nil && cs.flag.Load() {
		// Cancelled between admission and service: answer small.
		ds.reg.Counter("data.read_cancelled").Inc()
		return nil, fmt.Errorf("read %d: %w", req.ReqID, ErrCancelled)
	}
	if req.Length > wire.MaxFrameSize-64 {
		return nil, fmt.Errorf("%w: read of %d bytes exceeds frame budget", ErrInvalid, req.Length)
	}
	size := ds.store.Size(req.Handle)
	if ds.ranger != nil && req.Length >= zeroCopyMin && req.Offset < size {
		n := min(uint64(req.Length), size-req.Offset)
		p, err := ds.ranger.ReadRange(req.Handle, req.Offset, n)
		if err == nil {
			ds.reg.Counter("data.bytes_read").Add(int64(n))
			served = n
			// Closed in PostWrite once the frame has left the server.
			resp := &wire.ReadResp{Payload: p, EOF: req.Offset+n >= size}
			if cs != nil {
				resp.Cancelled = &cs.flag
			}
			return resp, nil
		}
		// Any failure (a Truncate/Remove race, fd exhaustion) falls back
		// to the copy path, which re-reads whatever is there now.
	}
	buf := wire.GetBuf(int(req.Length)) // returned to the pool in PostWrite
	n, err := ds.store.ReadAt(req.Handle, buf, req.Offset)
	if err != nil {
		wire.PutBuf(buf) // error response carries no data; recycle now
		return nil, err
	}
	ds.reg.Counter("data.bytes_read").Add(int64(n))
	served = uint64(n)
	// The store just staged n bytes into a user-space buffer; the wire
	// layer counts any further copies (wire.copied_bytes).
	ds.reg.Counter("data.bytes_copied").Add(int64(n))
	eof := req.Offset+uint64(n) >= size
	resp := &wire.ReadResp{Data: buf[:n], EOF: eof, PoolBuf: buf}
	if cs != nil {
		resp.Cancelled = &cs.flag
	}
	return resp, nil
}

func (ds *DataServer) write(req *wire.WriteReq) (wire.Message, error) {
	ds.reg.Counter("data.write").Inc()
	ds.reg.Gauge("data.inflight").Add(1) // released by PostWrite
	if ds.gate != nil {
		tk := ds.gate.Enqueue(ioqueue.Normal, req.Tenant, uint64(len(req.Data)))
		tk.Wait() // writes are not cancellable; Wait always grants
		defer tk.Release()
	}
	n, err := ds.store.WriteAt(req.Handle, req.Data, req.Offset)
	if err != nil {
		ds.tenants.Account(req.Tenant, func(s *tenant.Stats) { s.WriteOps++ })
		return nil, err
	}
	ds.reg.Counter("data.bytes_written").Add(int64(n))
	ds.tenants.Account(req.Tenant, func(s *tenant.Stats) { s.WriteOps++; s.BytesWritten += uint64(n) })
	return &wire.WriteResp{N: uint32(n)}, nil
}

func (ds *DataServer) trunc(req *wire.TruncReq) (wire.Message, error) {
	ds.reg.Counter("data.trunc").Inc()
	ds.tenants.Account(req.Tenant, func(s *tenant.Stats) { s.TruncOps++ })
	if req.Remove {
		if err := ds.store.Remove(req.Handle); err != nil {
			return nil, err
		}
		return &wire.TruncResp{}, nil
	}
	if err := ds.store.Truncate(req.Handle, req.Size); err != nil {
		return nil, err
	}
	return &wire.TruncResp{}, nil
}
