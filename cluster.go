package dosas

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dosas/internal/audit"
	"dosas/internal/core"
	"dosas/internal/eventlog"
	"dosas/internal/metrics"
	"dosas/internal/openmetrics"
	"dosas/internal/pfs"
	"dosas/internal/slo"
	"dosas/internal/telemetry"
	"dosas/internal/tenant"
	"dosas/internal/trace"
	"dosas/internal/transport"
	"dosas/internal/tsdb"
)

// Scheme selects how clients issue analysis reads — the paper's three
// evaluated schemes.
type Scheme int

// Client schemes.
const (
	// DOSAS requests active I/O and lets each storage node's dynamic
	// policy accept, bounce, or interrupt it (the paper's contribution).
	DOSAS Scheme = iota
	// AS always requests active I/O (classic active storage).
	AS
	// TS never requests active I/O: raw reads plus local compute
	// (traditional storage).
	TS
)

// String names the scheme as the paper abbreviates it.
func (s Scheme) String() string { return s.core().String() }

func (s Scheme) core() core.Scheme {
	switch s {
	case AS:
		return core.SchemeAS
	case TS:
		return core.SchemeTS
	default:
		return core.SchemeDOSAS
	}
}

// Policy selects a storage node's server-side scheduling behaviour.
type Policy int

// Server policies.
const (
	// Dynamic is DOSAS scheduling: the Contention Estimator's policy
	// decides per request.
	Dynamic Policy = iota
	// AlwaysAccept runs every active request on the storage node.
	AlwaysAccept
	// AlwaysBounce rejects every active request.
	AlwaysBounce
)

func (p Policy) mode() core.Mode {
	switch p {
	case AlwaysAccept:
		return core.ModeAlwaysAccept
	case AlwaysBounce:
		return core.ModeAlwaysBounce
	default:
		return core.ModeDynamic
	}
}

// Options configures StartCluster.
type Options struct {
	// DataServers is the number of storage nodes (default 4).
	DataServers int
	// Policy is the storage nodes' scheduling behaviour (default
	// Dynamic).
	Policy Policy
	// Solver names the scheduling algorithm dynamic-mode nodes run:
	// "exhaustive", "maxgain" (default), "all-active" or "all-normal".
	// Ignored by the static policies.
	Solver string
	// StripeSize is the default stripe size for new files (default
	// 64 KiB).
	StripeSize uint32
	// TCP switches from the in-process transport to real TCP loopback
	// sockets (one listener per server).
	TCP bool
	// TCPBasePort, when positive with TCP set, binds the metadata server
	// to 127.0.0.1:TCPBasePort and storage node i to TCPBasePort+1+i.
	// Zero picks ephemeral ports.
	TCPBasePort int
	// LinkRate, when positive, shapes each server's link to this many
	// bytes/second — set 118e6 to emulate the paper's measured Gigabit
	// Ethernet on a fast host.
	LinkRate float64
	// LinkDelay, when positive, adds this one-way propagation delay to
	// every connection in each direction — cross-rack or datacenter-hop
	// latency emulation. Composes with LinkRate.
	LinkDelay time.Duration
	// NetworkBandwidth is what the Contention Estimator assumes for bw;
	// defaults to LinkRate when shaped, else 118 MB/s.
	NetworkBandwidth float64
	// Pace throttles kernel execution to the calibrated per-core rates,
	// emulating the paper's hardware timing in live runs.
	Pace bool
	// TotalCores and IOReservedCores size each storage node (defaults:
	// 2 and 1, the paper's simulated storage nodes).
	TotalCores      int
	IOReservedCores int
	// EstimatorPeriod is how often each storage node's Contention
	// Estimator re-probes and re-evaluates its policy (default 50 ms).
	EstimatorPeriod time.Duration
	// DataDir, when set, backs stripe stores with files under this
	// directory (one subdirectory per storage node) and journals
	// metadata, making the cluster durable across restarts.
	DataDir string
	// StoreBackend picks the on-disk store format when DataDir is set:
	// "extent" (default; extent files plus the zero-copy read path) or
	// "file" (the v0 one-file-per-handle layout, kept as the bench
	// baseline and for pre-extent data directories).
	StoreBackend string
	// StoreSync makes disk-backed stores fsync after every write and
	// truncate (-fsync on the daemons). Off by default: the page cache
	// absorbs write bursts and the workloads are re-runnable.
	StoreSync bool
	// FDCacheSize caps each disk-backed store's open descriptors
	// (default pfs.DefaultFDCacheSize).
	FDCacheSize int
	// PlainReadPath disables the zero-copy serving path on every
	// storage node: bulk reads stage through pooled buffers and frames
	// are written contiguously, as before this path existed. Used by
	// the sendbuf-vs-sendfile A/B benchmarks.
	PlainReadPath bool
	// WindowDepth is how many chunk requests clients connected through
	// this Cluster keep in flight per server connection during bulk
	// transfers (default pfs.DefaultWindowDepth; 1 disables pipelining).
	WindowDepth int
	// TransferChunk is the per-request chunk size for those bulk
	// transfers (default pfs.DefaultTransferChunk). Smaller chunks make
	// the window matter more on high-latency links.
	TransferChunk int
	// TelemetryTick is how often each node samples its telemetry probes
	// into the time-series rings served by Health/Series and dosasctl
	// top. Zero takes telemetry.DefaultInterval (100 ms); negative
	// disables node telemetry entirely.
	TelemetryTick time.Duration
	// DisableMux makes every server decline the connection-multiplexing
	// handshake, pinning all RPC to the ordered per-exchange mode
	// (emulates a pre-mux deployment; used by A/B benchmarks).
	DisableMux bool
	// SLORules are the alert rules every node's SLO engine evaluates on
	// its telemetry tick. Nil takes DefaultSLORules; engines are only
	// built when node telemetry is enabled (TelemetryTick >= 0).
	SLORules []SLORule
	// DisableSLO turns alert evaluation off even when telemetry runs.
	DisableSLO bool
	// EventCapacity bounds each node's in-memory event ring (default
	// 1024).
	EventCapacity int
	// EventMirror, when set, additionally receives every node's events
	// as human-readable lines (e.g. os.Stderr for daemon consoles).
	EventMirror io.Writer
	// EventDir, when set, persists each node's events as JSON lines
	// under EventDir/<node>.events.jsonl.
	EventDir string
	// EventsMaxBytes caps each node's JSONL event sink (live file plus
	// one rotated predecessor). Zero takes eventlog.DefaultSinkMaxBytes;
	// negative disables rotation.
	EventsMaxBytes int64
	// ArchiveDir, when set, gives every node a durable telemetry
	// archive under ArchiveDir/<node>: each sampler tick is persisted
	// to CRC-framed chunk files with downsampling tiers, served as the
	// "query" inspect kind and queried via Cluster.Query / dosasctl
	// query.
	// Requires telemetry (TelemetryTick >= 0).
	ArchiveDir string
	// ArchiveMaxBytes is each node archive's retention budget across
	// all tiers. Zero takes tsdb.DefaultMaxBytes; negative is
	// unbounded.
	ArchiveMaxBytes int64
	// DisableTenants turns per-tenant resource attribution off on every
	// storage node: no usage table, no tenant.wait.share probe, and no
	// "tenants" inspect kind. Used by the attribution-overhead A/B
	// benchmark.
	DisableTenants bool
	// TenantLimit caps each storage node's tenant table; past it the
	// least-recently-active tenant folds into the "(evicted)" aggregate
	// row (default tenant.DefaultLimit).
	TenantLimit int
	// TenantWeights are the per-tenant weighted-fair scheduling weights
	// applied on every storage node's admission gate and active queue,
	// and on the metadata server's lookup gate. A weight-2 tenant earns
	// scheduling credit twice as fast as a weight-1 tenant; absent
	// tenants weigh 1, and nil means equal weights for everyone.
	TenantWeights map[string]float64
	// QoSSlots bounds concurrently admitted requests per storage node's
	// gate (0 = pfs.DefaultQoSSlots).
	QoSSlots int
	// DisableQoS turns the weighted-fair admission gates off on every
	// node: requests run in arrival order bounded only by the transport,
	// as before the gates existed (isolation A/B benchmarks).
	DisableQoS bool
}

// Cluster is a running DOSAS deployment: one metadata server plus
// DataServers storage nodes, each running the pfs data service with an
// Active I/O Runtime attached.
type Cluster struct {
	net           transport.Network
	metaAddr      string
	dataAddrs     []string
	servers       []*pfs.Server
	runtimes      []*core.Runtime
	meta          *pfs.MetaServer
	metaTele      *telemetry.Sampler
	metaEvents    *eventlog.Log
	metaSLO       *slo.Engine
	dataServers   []*pfs.DataServer
	stores        []pfs.Store
	events        []*eventlog.Log
	engines       []*slo.Engine
	tenantTables  []*tenant.Table
	archives      []*tsdb.Archive
	metaArchive   *tsdb.Archive
	windowDepth   int
	transferChunk int
	telemetryTick time.Duration
}

// newSampler builds one node's telemetry sampler per the cluster's tick
// convention: zero means the default interval, negative disables.
func newSampler(tick time.Duration) *telemetry.Sampler {
	if tick < 0 {
		return nil
	}
	s := telemetry.NewSampler(telemetry.Config{Interval: tick})
	// Every sampler carries the Go runtime health series (goroutines,
	// heap in use, GC pause p99) alongside the node's own probes.
	telemetry.RegisterRuntimeProbes(s)
	return s
}

// newEventLog builds one node's structured event log per the cluster's
// event options.
func (o Options) newEventLog(node string) (*eventlog.Log, error) {
	cfg := eventlog.Config{Node: node, Capacity: o.EventCapacity, Mirror: o.EventMirror, MaxBytes: o.EventsMaxBytes}
	if o.EventDir != "" {
		if err := os.MkdirAll(o.EventDir, 0o755); err != nil {
			return nil, err
		}
		cfg.Path = filepath.Join(o.EventDir, node+".events.jsonl")
	}
	return eventlog.New(cfg)
}

// newArchive builds one node's durable telemetry archive under
// ArchiveDir/<node> and hooks its appender to the sampler's tick. Nil
// (archive disabled) when ArchiveDir is unset or telemetry is off.
// Append failures are reported once to the node's event log rather
// than per tick — a full disk would otherwise flood it.
func (o Options) newArchive(node string, tele *telemetry.Sampler, ev *eventlog.Log) (*tsdb.Archive, error) {
	if o.ArchiveDir == "" || tele == nil {
		return nil, nil
	}
	a, err := tsdb.Open(tsdb.Config{
		Dir:      filepath.Join(o.ArchiveDir, node),
		MaxBytes: o.ArchiveMaxBytes,
	})
	if err != nil {
		return nil, err
	}
	var failed bool
	tele.OnSamples(func(wallNano, monoNano int64, samples []telemetry.Sample) {
		if err := a.Append(wallNano, monoNano, samples); err != nil && !failed {
			failed = true
			ev.Warn("tsdb", "archive append failed", "err", err.Error())
		}
	})
	return a, nil
}

// newEngine builds one node's SLO engine over its sampler and hooks
// evaluation to the sampler's tick, so alert rules are re-judged exactly
// once per fresh telemetry sample. Nil when telemetry or alerting is
// disabled. A non-nil tenant table wires the annotation hook so
// noisy-neighbor transitions name the dominant tenant in the event log.
func (o Options) newEngine(node string, tele *telemetry.Sampler, ev *eventlog.Log, reg *metrics.Registry, tab *tenant.Table) (*slo.Engine, error) {
	if tele == nil || o.DisableSLO {
		return nil, nil
	}
	rules := o.SLORules
	if rules == nil {
		rules = slo.DefaultRules()
	}
	cfg := slo.Config{
		Rules: rules, Sampler: tele, Events: ev, Metrics: reg, Node: node,
	}
	if tab != nil {
		cfg.Annotate = func(rule string) []string {
			if rule != "noisy-neighbor" {
				return nil
			}
			top, share := tab.TopWait()
			if top == "" {
				return nil
			}
			return []string{"tenant", top, "share", fmt.Sprintf("%.2f", share)}
		}
	}
	eng, err := slo.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	tele.OnTick(eng.Eval)
	return eng, nil
}

// StartCluster boots an in-process (or TCP-loopback) cluster and returns
// once every server is accepting connections.
func StartCluster(o Options) (*Cluster, error) {
	if o.DataServers <= 0 {
		o.DataServers = 4
	}
	if o.NetworkBandwidth == 0 {
		if o.LinkRate > 0 {
			o.NetworkBandwidth = o.LinkRate
		} else {
			o.NetworkBandwidth = 118e6
		}
	}

	var solver core.Solver
	if o.Solver != "" {
		s, err := core.SolverByName(o.Solver)
		if err != nil {
			return nil, err
		}
		solver = s
	}

	var net transport.Network
	if o.TCP {
		net = transport.TCP{}
	} else {
		net = transport.NewInproc()
	}
	if o.LinkRate > 0 {
		net = transport.NewShaped(net, o.LinkRate)
	}
	if o.LinkDelay > 0 {
		net = transport.NewDelayed(net, o.LinkDelay)
	}

	c := &Cluster{net: net, windowDepth: o.WindowDepth, transferChunk: o.TransferChunk, telemetryTick: o.TelemetryTick}
	ok := false
	defer func() {
		if !ok {
			c.Close()
		}
	}()

	c.metaTele = newSampler(o.TelemetryTick)
	metaEvents, err := o.newEventLog("meta")
	if err != nil {
		return nil, err
	}
	c.metaEvents = metaEvents
	metaReg := metrics.NewRegistry()
	metaSLO, err := o.newEngine("meta", c.metaTele, metaEvents, metaReg, nil)
	if err != nil {
		return nil, err
	}
	c.metaSLO = metaSLO
	metaArchive, err := o.newArchive("meta", c.metaTele, metaEvents)
	if err != nil {
		return nil, err
	}
	c.metaArchive = metaArchive
	metaCfg := pfs.MetaConfig{
		NumDataServers:    o.DataServers,
		DefaultStripeSize: o.StripeSize,
		Metrics:           metaReg,
		Telemetry:         c.metaTele,
		Events:            metaEvents,
		SLO:               metaSLO,
		Archive:           metaArchive,
		QoS:               o.qosConfig(),
	}
	if o.DataDir != "" {
		metaCfg.JournalPath = filepath.Join(o.DataDir, "meta.wal")
	}
	meta, err := pfs.NewMetaServer(metaCfg)
	if err != nil {
		return nil, err
	}
	c.meta = meta
	ml, err := net.Listen(o.listenAddr("meta", 0))
	if err != nil {
		return nil, err
	}
	ms := pfs.NewServer(ml, meta)
	ms.SetMux(!o.DisableMux)
	ms.Start()
	c.servers = append(c.servers, ms)
	c.metaAddr = ms.Addr()

	for i := 0; i < o.DataServers; i++ {
		var store pfs.Store
		if o.DataDir != "" {
			dir := filepath.Join(o.DataDir, fmt.Sprintf("data-%d", i))
			switch o.StoreBackend {
			case "", "extent":
				es, err := pfs.NewExtentStore(pfs.ExtentConfig{
					Dir:         dir,
					Sync:        o.StoreSync,
					FDCacheSize: o.FDCacheSize,
				})
				if err != nil {
					return nil, err
				}
				store = es
			case "file":
				fs, err := pfs.NewFileStoreConfig(pfs.FileStoreConfig{
					Dir:         dir,
					Sync:        o.StoreSync,
					FDCacheSize: o.FDCacheSize,
				})
				if err != nil {
					return nil, err
				}
				store = fs
			default:
				return nil, fmt.Errorf("dosas: unknown store backend %q", o.StoreBackend)
			}
		} else {
			store = pfs.NewMemStore()
		}
		c.stores = append(c.stores, store)
		node := fmt.Sprintf("data-%d", i)
		reg := metrics.NewRegistry()
		tr := trace.NewRecorder(4096)
		tr.SetNode(node)
		// The data server and its runtime share one sampler: the runtime
		// registers the probes and owns the lifecycle, the server serves
		// the history over the wire.
		tele := newSampler(o.TelemetryTick)
		// Likewise the decision audit ring: the runtime appends and
		// resolves records, the server's inspect registry serves it.
		alog := audit.NewLog(4096)
		alog.SetNode(node)
		// Events and the alert engine are shared the same way: the runtime
		// emits lifecycle events and the sampler tick drives evaluation,
		// while the server's inspect registry serves them.
		ev, err := o.newEventLog(node)
		if err != nil {
			return nil, err
		}
		c.events = append(c.events, ev)
		// The tenant table is shared the same way: the data server and
		// runtime account usage into it, the server's inspect registry
		// serves it and the SLO annotation hook reads the dominant waiter
		// from it.
		var tab *tenant.Table
		if !o.DisableTenants {
			limit := o.TenantLimit
			if limit <= 0 {
				limit = tenant.DefaultLimit
			}
			tab = tenant.NewTable(limit)
		}
		c.tenantTables = append(c.tenantTables, tab)
		eng, err := o.newEngine(node, tele, ev, reg, tab)
		if err != nil {
			return nil, err
		}
		c.engines = append(c.engines, eng)
		// The archive hooks the shared sampler: every tick the runtime's
		// probes record is also persisted, so post-restart queries see
		// the node's pre-crash history.
		arch, err := o.newArchive(node, tele, ev)
		if err != nil {
			return nil, err
		}
		c.archives = append(c.archives, arch)
		ds, err := pfs.NewDataServer(pfs.DataConfig{Store: store, Metrics: reg, Node: node, Trace: tr, Telemetry: tele, Audit: alog, Events: ev, SLO: eng, Tenants: tab, Archive: arch, QoS: o.qosConfig()})
		if err != nil {
			return nil, err
		}
		rt, err := core.NewRuntime(core.RuntimeConfig{
			Store:  store,
			Mode:   o.Policy.mode(),
			Solver: solver,
			Audit:  alog,
			Estimator: core.EstimatorConfig{
				BW:              o.NetworkBandwidth,
				TotalCores:      o.TotalCores,
				IOReservedCores: o.IOReservedCores,
				Period:          o.EstimatorPeriod,
			},
			Pace:          o.Pace,
			Metrics:       reg,
			Trace:         tr,
			Node:          node,
			Telemetry:     tele,
			Events:        ev,
			Tenants:       tab,
			TenantWeights: o.TenantWeights,
		})
		if err != nil {
			return nil, err
		}
		c.runtimes = append(c.runtimes, rt)
		c.dataServers = append(c.dataServers, ds)
		ds.SetActiveHandler(rt)
		dl, err := net.Listen(o.listenAddr(fmt.Sprintf("data-%d", i), i+1))
		if err != nil {
			return nil, err
		}
		srv := pfs.NewServer(dl, ds)
		srv.SetMux(!o.DisableMux)
		srv.SetFrameStats(ds.WireStats())
		if o.PlainReadPath {
			ds.SetZeroCopy(false)
			srv.SetPlainWrites(true)
		}
		srv.Start()
		c.servers = append(c.servers, srv)
		c.dataAddrs = append(c.dataAddrs, srv.Addr())
	}
	ok = true
	return c, nil
}

// qosConfig builds the per-node admission gate config, or nil when QoS
// is disabled.
func (o Options) qosConfig() *pfs.QoSConfig {
	if o.DisableQoS {
		return nil
	}
	return &pfs.QoSConfig{Slots: o.QoSSlots, Weights: o.TenantWeights}
}

// listenAddr picks the bind address for a server under either transport.
// slot 0 is the metadata server; storage node i uses slot i+1.
func (o Options) listenAddr(name string, slot int) string {
	if !o.TCP {
		return name
	}
	if o.TCPBasePort > 0 {
		return fmt.Sprintf("127.0.0.1:%d", o.TCPBasePort+slot)
	}
	return "127.0.0.1:0"
}

// MetaAddr returns the metadata server's address.
func (c *Cluster) MetaAddr() string { return c.metaAddr }

// DataAddrs returns the storage nodes' addresses in layout order.
func (c *Cluster) DataAddrs() []string { return append([]string(nil), c.dataAddrs...) }

// Connect returns a client file system bound to this cluster using the
// given scheme.
func (c *Cluster) Connect(scheme Scheme) (*FS, error) {
	return c.ConnectClient(ClientOptions{Scheme: scheme})
}

// ConnectPaced is Connect with client-side kernel pacing enabled,
// matching a cluster started with Options.Pace.
func (c *Cluster) ConnectPaced(scheme Scheme) (*FS, error) {
	return c.ConnectClient(ClientOptions{Scheme: scheme, Pace: true})
}

// ConnectClient is Connect with full client options — slow-request
// detection, flight capture, client telemetry — bound to this cluster's
// transport and addresses (o.MetaAddr and o.DataAddrs are ignored).
// Unset window, chunk, and telemetry options inherit the cluster's.
func (c *Cluster) ConnectClient(o ClientOptions) (*FS, error) {
	if o.WindowDepth == 0 {
		o.WindowDepth = c.windowDepth
	}
	if o.TransferChunk == 0 {
		o.TransferChunk = c.transferChunk
	}
	if o.TelemetryTick == 0 {
		o.TelemetryTick = c.telemetryTick
	}
	return connect(c.net, c.metaAddr, c.dataAddrs, o)
}

// TraceDump renders storage node i's request-lifecycle trace: one line
// per arrival, scheduling decision, kernel start, interruption,
// migration, and completion — why the node did what it did.
func (c *Cluster) TraceDump(node int) (string, error) {
	body, err := inspectNode(c, node, pfs.InspectTrace, pfs.TraceArgs{})
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	trace.WriteText(&sb, body.Events, body.Dropped)
	return sb.String(), nil
}

// Close stops every server and releases stores. Safe to call more than
// once.
func (c *Cluster) Close() {
	for _, rt := range c.runtimes {
		rt.Close()
	}
	c.runtimes = nil
	for _, s := range c.servers {
		s.Close()
	}
	c.servers = nil
	for _, ds := range c.dataServers {
		ds.Close()
	}
	c.dataServers = nil
	for _, st := range c.stores {
		st.Close()
	}
	c.stores = nil
	if c.meta != nil {
		c.meta.Close()
		c.meta = nil
	}
	for _, ev := range c.events {
		ev.Close()
	}
	c.events = nil
	if c.metaEvents != nil {
		c.metaEvents.Close()
		c.metaEvents = nil
	}
	// Archives close last: the samplers feeding them stopped when the
	// runtimes and the meta server shut down above, so the final flush
	// seals every open downsample bucket.
	for _, a := range c.archives {
		a.Close()
	}
	c.archives = nil
	if c.metaArchive != nil {
		c.metaArchive.Close()
		c.metaArchive = nil
	}
}

// MetricsSources enumerates every node's exposition inputs for the
// OpenMetrics endpoint (openmetrics.Render / openmetrics.Handler),
// metadata server first, then storage nodes in layout order.
func (c *Cluster) MetricsSources() []openmetrics.Source {
	var out []openmetrics.Source
	if c.meta != nil {
		out = append(out, openmetrics.Source{
			Node: "meta", Role: "meta",
			Metrics: c.meta.Metrics(), Telemetry: c.metaTele,
			SLO: c.metaSLO, Events: c.metaEvents,
		})
	}
	for i, rt := range c.runtimes {
		src := openmetrics.Source{
			Node: fmt.Sprintf("data-%d", i), Role: "data",
			Metrics: rt.Metrics(), Telemetry: rt.Telemetry(),
		}
		if i < len(c.engines) {
			src.SLO = c.engines[i]
		}
		if i < len(c.events) {
			src.Events = c.events[i]
		}
		if i < len(c.tenantTables) {
			src.Tenants = c.tenantTables[i]
		}
		out = append(out, src)
	}
	return out
}

// ClientOptions configures Connect for clusters whose servers run in
// other processes (started with cmd/dosas-meta and cmd/dosas-server).
type ClientOptions struct {
	// MetaAddr is the metadata server's TCP address.
	MetaAddr string
	// DataAddrs are the storage nodes' TCP addresses, in cluster order
	// (the order servers were registered; layouts index into it).
	DataAddrs []string
	// Scheme selects TS / AS / DOSAS client behaviour.
	Scheme Scheme
	// Tenant identifies this client in per-tenant resource attribution:
	// it is stamped on every request the client issues and storage nodes
	// account bytes, ops, queue wait and kernel time against it. Empty
	// means "default".
	Tenant string
	// Pace throttles client-side kernel execution to calibrated rates.
	Pace bool
	// WindowDepth is how many chunk requests bulk transfers keep in
	// flight per server connection (default pfs.DefaultWindowDepth).
	WindowDepth int
	// TransferChunk is the per-request chunk size for bulk transfers
	// (default pfs.DefaultTransferChunk).
	TransferChunk int
	// TelemetryTick is how often the client samples its own probes
	// (pending requests, shipped-bytes rate, bounce rate). Zero takes
	// telemetry.DefaultInterval (100 ms); negative disables client
	// telemetry.
	TelemetryTick time.Duration
	// SlowThreshold arms the slow-request flight recorder: any ReadEx
	// slower than this absolute bound captures a diagnostic bundle. Zero
	// disables the absolute criterion.
	SlowThreshold time.Duration
	// SlowFactor flags any ReadEx slower than SlowFactor× the median of
	// recent reads. Zero disables the relative criterion; with both
	// criteria zero, no bundles are ever captured.
	SlowFactor float64
	// SlowDir, when set, persists captured bundles as JSON under this
	// directory for dosasctl slow to read from another process.
	SlowDir string
	// SlowDirBytes caps the total bytes of persisted bundles in SlowDir;
	// oldest are pruned past it. Zero takes the package default;
	// negative disables the cap.
	SlowDirBytes int64
	// FlightCapacity bounds the slow-request journal (default 16).
	FlightCapacity int
	// DisableMux pins the client's pool to ordered per-exchange
	// connections instead of negotiating multiplexing with the servers.
	DisableMux bool
	// HedgeAfter enables hedged reads on replicated files: a segment read
	// still unanswered after this delay is duplicated to the next-best
	// replica and the loser is cancelled. Used as the fallback trigger
	// until the per-server latency tracker can derive a quantile-based
	// one. Zero disables hedging.
	HedgeAfter time.Duration
}

// Connect dials an externally managed cluster over TCP.
func Connect(o ClientOptions) (*FS, error) {
	return connect(transport.TCP{}, o.MetaAddr, o.DataAddrs, o)
}

func connect(net transport.Network, metaAddr string, dataAddrs []string, o ClientOptions) (*FS, error) {
	pc, err := pfs.NewClient(pfs.ClientConfig{
		Net: net, MetaAddr: metaAddr, DataAddrs: dataAddrs, WindowDepth: o.WindowDepth, TransferChunk: o.TransferChunk,
		DisableMux: o.DisableMux, Tenant: o.Tenant, HedgeAfter: o.HedgeAfter,
	})
	if err != nil {
		return nil, err
	}
	asc, err := core.NewClient(core.ClientConfig{
		FS: pc, Scheme: o.Scheme.core(), Pace: o.Pace, WindowDepth: o.WindowDepth,
		Tenant:         o.Tenant,
		Telemetry:      newSampler(o.TelemetryTick),
		SlowThreshold:  o.SlowThreshold,
		SlowFactor:     o.SlowFactor,
		SlowDir:        o.SlowDir,
		SlowDirBytes:   o.SlowDirBytes,
		FlightCapacity: o.FlightCapacity,
	})
	if err != nil {
		pc.Close()
		return nil, err
	}
	return &FS{pc: pc, asc: asc, scheme: o.Scheme}, nil
}
