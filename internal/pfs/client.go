package pfs

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"dosas/internal/transport"
	"dosas/internal/wire"
)

// DefaultTransferChunk bounds a single Read/Write RPC so bulk transfers stay well
// under the wire frame limit and interleave fairly on shared links.
const DefaultTransferChunk = 4 << 20

// ClientConfig tells a client where the cluster lives.
type ClientConfig struct {
	// Net is the transport to dial through.
	Net transport.Network
	// MetaAddr is the metadata server's address.
	MetaAddr string
	// DataAddrs maps data-server indices (as used in layouts) to
	// addresses. Order matters and must match the cluster configuration.
	DataAddrs []string
	// WindowDepth is how many chunk requests bulk transfers keep in
	// flight per server connection. 0 takes DefaultWindowDepth; 1 is the
	// serial request/response loop.
	WindowDepth int
	// TransferChunk bounds a single Read/Write RPC in bytes. 0 takes the
	// 4 MiB default; values are clamped under the wire frame limit.
	TransferChunk int
	// DisableMux pins the pool to the ordered one-exchange-per-connection
	// mode instead of negotiating multiplexed connections (debugging and
	// A/B benchmarks).
	DisableMux bool
	// Tenant identifies this client's workload on every data-path request
	// (reads, writes, trunc/remove), so storage nodes attribute bytes and
	// ops to it. Empty means the default tenant and keeps the wire format
	// byte-identical to pre-tenant clients.
	Tenant string
	// HedgeAfter enables hedged reads on replicated files: when the
	// fastest replica has not finished a segment within the delay, the
	// read is duplicated to the next-best replica and the loser is
	// cancelled. The configured value is the fallback trigger, used until
	// the per-server latency tracker has enough samples to derive a
	// quantile-based one (≈p95 of observed chunk latency). Zero disables
	// hedging.
	HedgeAfter time.Duration
}

// Client is the file system client: it resolves names at the metadata
// server and moves stripe data directly to/from the data servers.
type Client struct {
	cfg  ClientConfig
	pool *Pool
}

// NewClient builds a client for the given cluster.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Net == nil {
		return nil, fmt.Errorf("%w: client needs a transport", ErrInvalid)
	}
	if cfg.MetaAddr == "" {
		return nil, fmt.Errorf("%w: client needs a metadata address", ErrInvalid)
	}
	if len(cfg.DataAddrs) == 0 {
		return nil, fmt.Errorf("%w: client needs data server addresses", ErrInvalid)
	}
	pool := NewPool(cfg.Net)
	if cfg.DisableMux {
		pool.DisableMux()
	}
	pool.SetTenant(cfg.Tenant)
	return &Client{cfg: cfg, pool: pool}, nil
}

// Close releases pooled connections.
func (c *Client) Close() { c.pool.Close() }

// Pool exposes the client's connection pool so higher layers (the active
// storage client) can issue their own RPCs over it.
func (c *Client) Pool() *Pool { return c.pool }

// Targets lists the cluster's nodes for an inspect Sweep through Pool.
func (c *Client) Targets() []Target { return Targets(c.cfg.MetaAddr, c.cfg.DataAddrs) }

// DataAddr returns the address of data server idx.
func (c *Client) DataAddr(idx uint32) (string, error) {
	if int(idx) >= len(c.cfg.DataAddrs) {
		return "", fmt.Errorf("%w: data server index %d out of range", ErrInvalid, idx)
	}
	return c.cfg.DataAddrs[idx], nil
}

// Create makes a new file. stripeSize and width of 0 take cluster defaults.
func (c *Client) Create(name string, stripeSize uint32, width int) (*File, error) {
	return c.create(&wire.CreateReq{Name: name, StripeSize: stripeSize, Width: uint32(width)})
}

// CreateReplicated makes a new file keeping `replicas` copies of every
// stripe on distinct servers (chained placement). Reads and active reads
// fail over to surviving replicas transparently; writes go to all copies.
func (c *Client) CreateReplicated(name string, stripeSize uint32, width, replicas int) (*File, error) {
	return c.create(&wire.CreateReq{
		Name: name, StripeSize: stripeSize, Width: uint32(width), Replicas: uint8(replicas),
	})
}

// CreatePlaced makes a new file striped over exactly the given data
// servers, in order — used to co-locate derived files with their source.
func (c *Client) CreatePlaced(name string, stripeSize uint32, servers []uint32) (*File, error) {
	if len(servers) == 0 {
		return nil, fmt.Errorf("%w: empty placement", ErrInvalid)
	}
	return c.create(&wire.CreateReq{
		Name: name, StripeSize: stripeSize, Placement: append([]uint32(nil), servers...),
	})
}

func (c *Client) create(req *wire.CreateReq) (*File, error) {
	resp, err := c.pool.Call(c.cfg.MetaAddr, req)
	if err != nil {
		return nil, err
	}
	cr, ok := resp.(*wire.CreateResp)
	if !ok {
		return nil, fmt.Errorf("pfs: create: unexpected response %v", resp.Type())
	}
	return &File{c: c, name: req.Name, handle: cr.Handle, layout: cr.Layout}, nil
}

// SetSize records size at the metadata server (max semantics) and updates
// the local view. Used by layers that write server-local streams directly
// (active transforms) rather than through WriteAt.
func (f *File) SetSize(size uint64) error {
	resp, err := f.c.pool.Call(f.c.cfg.MetaAddr, &wire.SetSizeReq{Handle: f.handle, Size: size})
	if err != nil {
		return err
	}
	sr, ok := resp.(*wire.SetSizeResp)
	if !ok {
		return fmt.Errorf("pfs: setsize: unexpected response %v", resp.Type())
	}
	f.mu.Lock()
	if sr.Size > f.size {
		f.size = sr.Size
	}
	f.mu.Unlock()
	return nil
}

// Open looks an existing file up by name.
func (c *Client) Open(name string) (*File, error) {
	resp, err := c.pool.Call(c.cfg.MetaAddr, &wire.OpenReq{Name: name, Tenant: c.cfg.Tenant})
	if err != nil {
		return nil, err
	}
	or, ok := resp.(*wire.OpenResp)
	if !ok {
		return nil, fmt.Errorf("pfs: open: unexpected response %v", resp.Type())
	}
	return &File{c: c, name: name, handle: or.Handle, size: or.Size, layout: or.Layout}, nil
}

// Stat returns the metadata record for name.
func (c *Client) Stat(name string) (*wire.StatResp, error) {
	resp, err := c.pool.Call(c.cfg.MetaAddr, &wire.StatReq{Name: name, Tenant: c.cfg.Tenant})
	if err != nil {
		return nil, err
	}
	sr, ok := resp.(*wire.StatResp)
	if !ok {
		return nil, fmt.Errorf("pfs: stat: unexpected response %v", resp.Type())
	}
	return sr, nil
}

// Remove deletes a file: the name at the metadata server and the stripes
// at every data server in its layout.
func (c *Client) Remove(name string) error {
	st, err := c.Stat(name)
	if err != nil {
		return err
	}
	resp, err := c.pool.Call(c.cfg.MetaAddr, &wire.RemoveReq{Name: name})
	if err != nil {
		return err
	}
	if _, ok := resp.(*wire.RemoveResp); !ok {
		return fmt.Errorf("pfs: remove: unexpected response %v", resp.Type())
	}
	// Best-effort stripe cleanup (all replicas); the namespace entry is
	// already gone. Removing an absent stream is a no-op, so every
	// (server, replica) pair is simply swept.
	var wg sync.WaitGroup
	for _, idx := range st.Layout.Servers {
		addr, aerr := c.DataAddr(idx)
		if aerr != nil {
			continue
		}
		for r := 0; r < st.Layout.ReplicaCount(); r++ {
			wg.Add(1)
			go func(addr string, handle uint64) {
				defer wg.Done()
				c.pool.Call(addr, &wire.TruncReq{Handle: handle, Remove: true, Tenant: c.cfg.Tenant}) //nolint:errcheck
			}(addr, ReplicaHandle(st.Handle, r))
		}
	}
	wg.Wait()
	return nil
}

// List returns names with the given prefix in lexical order.
func (c *Client) List(prefix string) ([]string, error) {
	resp, err := c.pool.Call(c.cfg.MetaAddr, &wire.ListReq{Prefix: prefix, Tenant: c.cfg.Tenant})
	if err != nil {
		return nil, err
	}
	lr, ok := resp.(*wire.ListResp)
	if !ok {
		return nil, fmt.Errorf("pfs: list: unexpected response %v", resp.Type())
	}
	return lr.Names, nil
}

// File is an open striped file.
type File struct {
	c      *Client
	name   string
	handle uint64
	layout wire.Layout

	mu   sync.Mutex
	size uint64
}

// Name returns the file's name.
func (f *File) Name() string { return f.name }

// Handle returns the file's cluster-wide handle.
func (f *File) Handle() uint64 { return f.handle }

// Layout returns the file's stripe layout.
func (f *File) Layout() wire.Layout { return f.layout }

// Size returns the file size as known to this client (updated by writes
// through this File and by Open).
func (f *File) Size() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.size
}

// ReadAt fills p from the file at off, fanning segments out to their data
// servers in parallel. It returns the number of bytes read; reading past
// the end returns a short count.
func (f *File) ReadAt(p []byte, off uint64) (int, error) {
	size := f.Size()
	if off >= size {
		return 0, nil
	}
	if max := size - off; uint64(len(p)) > max {
		p = p[:max]
	}
	segs := Segments(f.layout, off, uint64(len(p)))
	errs := make(chan error, len(segs))
	for _, seg := range segs {
		go func(seg Segment) {
			errs <- f.readSegment(p[seg.FileOffset-off:seg.FileOffset-off+seg.Length], seg)
		}(seg)
	}
	var first error
	for range segs {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		return 0, first
	}
	return len(p), nil
}

// readSegment pulls one server-local range, chunked under the frame
// limit. Replicas are tried in expected-latency order (straggler-aware:
// the pool's tracker scores each candidate server for this request size,
// unknown and long-idle servers scoring best), failing over to the next
// on error. With hedging enabled, the second-best replica is raced
// against a primary that blows through its latency budget.
func (f *File) readSegment(dst []byte, seg Segment) error {
	order := f.replicaOrder(seg, len(dst))
	if f.c.cfg.HedgeAfter > 0 && len(order) > 1 {
		return f.readSegmentHedged(dst, seg, order)
	}
	var lastErr error
	for _, r := range order {
		if err := f.readSegmentReplica(dst, seg, r, nil); err != nil {
			lastErr = err
			continue
		}
		return nil
	}
	return lastErr
}

// replicaOrder returns the segment's replica indices sorted by the
// latency tracker's score for this request size (ties keep layout order,
// so an unmeasured cluster behaves exactly as before).
func (f *File) replicaOrder(seg Segment, bytes int) []int {
	reps := f.layout.ReplicaCount()
	order := make([]int, reps)
	for i := range order {
		order[i] = i
	}
	if reps == 1 {
		return order
	}
	lat := f.c.pool.Latency()
	score := make([]float64, reps)
	for i := range score {
		addr, err := f.c.DataAddr(ReplicaServer(f.layout, seg.Slot, i))
		if err == nil {
			score[i] = lat.Score(addr, bytes)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return score[order[a]] < score[order[b]] })
	return order
}

// readSegmentReplica reads the segment from replica r through the
// sliding-window path, keeping WindowDepth chunks in flight. Chained
// placement guarantees the replica's local offsets equal the primary's.
// ctl, when non-nil, makes the read cancellable (hedging).
func (f *File) readSegmentReplica(dst []byte, seg Segment, r int, ctl *ReadControl) error {
	addr, err := f.c.DataAddr(ReplicaServer(f.layout, seg.Slot, r))
	if err != nil {
		return err
	}
	handle := ReplicaHandle(f.handle, r)
	_, err = f.c.pool.ReadWindowedCtl(addr, handle, dst, seg.LocalOffset,
		f.c.cfg.WindowDepth, f.c.cfg.TransferChunk, ctl)
	if err != nil {
		return fmt.Errorf("pfs: read replica %d: %w", r, err)
	}
	return nil
}

// readSegmentHedged reads the segment from the best-scored replica, and —
// if that replica has not delivered within the hedge delay — duplicates
// the read to the second-best into scratch space, cancelling whichever
// copy loses. dst is only ever written by the primary read and by the
// final scratch copy after the primary goroutine has exited, so a losing
// primary's zero-filled cancelled bytes can never clobber winning data.
func (f *File) readSegmentHedged(dst []byte, seg Segment, order []int) error {
	pool := f.c.pool
	prim, hedge := order[0], order[1]
	primAddr, err := f.c.DataAddr(ReplicaServer(f.layout, seg.Slot, prim))
	if err != nil {
		return err
	}
	primCtl := pool.NewReadControl(primAddr)
	primDone := make(chan error, 1)
	go func() { primDone <- f.readSegmentReplica(dst, seg, prim, primCtl) }()

	delay := pool.Latency().HedgeDelay(primAddr, len(dst), f.c.cfg.HedgeAfter)
	timer := time.NewTimer(delay)
	defer timer.Stop()
	select {
	case err := <-primDone:
		if err == nil {
			return nil
		}
		return f.readFailover(dst, seg, order[1:], err)
	case <-timer.C:
	}

	// Primary is straggling: race the hedge replica into scratch space.
	hedgeAddr, err := f.c.DataAddr(ReplicaServer(f.layout, seg.Slot, hedge))
	if err != nil {
		// Cannot hedge; fall back to waiting for the primary alone.
		if perr := <-primDone; perr != nil {
			return f.readFailover(dst, seg, order[1:], perr)
		}
		return nil
	}
	pool.reg.Counter("pool.hedge.launched").Inc()
	scratch := wire.GetBuf(len(dst))[:len(dst)]
	hedgeCtl := pool.NewReadControl(hedgeAddr)
	hedgeDone := make(chan error, 1)
	go func() {
		n, herr := pool.ReadWindowedCtl(hedgeAddr, ReplicaHandle(f.handle, hedge),
			scratch, seg.LocalOffset, f.c.cfg.WindowDepth, f.c.cfg.TransferChunk, hedgeCtl)
		pool.reg.Counter("pool.hedge.bytes").Add(int64(n))
		hedgeDone <- herr
	}()

	select {
	case perr := <-primDone:
		if perr == nil {
			// Primary won after all: reclaim the hedge's bandwidth and
			// recycle its scratch once its window loop has let go of it.
			pool.reg.Counter("pool.hedge.cancelled").Inc()
			hedgeCtl.Cancel()
			go func() {
				<-hedgeDone
				wire.PutBuf(scratch)
			}()
			return nil
		}
		// Primary failed outright; the hedge is now the only copy running.
		if herr := <-hedgeDone; herr == nil {
			copy(dst, scratch)
			wire.PutBuf(scratch)
			pool.reg.Counter("pool.hedge.wins").Inc()
			return nil
		}
		wire.PutBuf(scratch)
		return f.readFailover(dst, seg, order[2:], perr)
	case herr := <-hedgeDone:
		if herr == nil {
			// Hedge won: cancel the primary and wait for its goroutine to
			// stop touching dst before installing the winning bytes.
			primCtl.Cancel()
			<-primDone
			copy(dst, scratch)
			wire.PutBuf(scratch)
			pool.reg.Counter("pool.hedge.wins").Inc()
			return nil
		}
		// Hedge failed; primary keeps running.
		wire.PutBuf(scratch)
		if perr := <-primDone; perr != nil {
			return f.readFailover(dst, seg, order[2:], perr)
		}
		return nil
	}
}

// readFailover walks the remaining replicas in order after a failure.
func (f *File) readFailover(dst []byte, seg Segment, rest []int, lastErr error) error {
	for _, r := range rest {
		if err := f.readSegmentReplica(dst, seg, r, nil); err != nil {
			lastErr = err
			continue
		}
		return nil
	}
	return lastErr
}

// WriteAt stores p at off, fanning segments out in parallel, then records
// any size extension at the metadata server.
func (f *File) WriteAt(p []byte, off uint64) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	segs := Segments(f.layout, off, uint64(len(p)))
	errs := make(chan error, len(segs))
	for _, seg := range segs {
		go func(seg Segment) {
			errs <- f.writeSegment(p[seg.FileOffset-off:seg.FileOffset-off+seg.Length], seg)
		}(seg)
	}
	var first error
	for range segs {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		return 0, first
	}
	end := off + uint64(len(p))
	f.mu.Lock()
	grew := end > f.size
	if grew {
		f.size = end
	}
	f.mu.Unlock()
	if grew {
		resp, err := f.c.pool.Call(f.c.cfg.MetaAddr, &wire.SetSizeReq{Handle: f.handle, Size: end})
		if err != nil {
			return len(p), err
		}
		if sr, ok := resp.(*wire.SetSizeResp); ok {
			f.mu.Lock()
			if sr.Size > f.size {
				f.size = sr.Size
			}
			f.mu.Unlock()
		}
	}
	return len(p), nil
}

// writeSegment stores one segment on every replica. Writes require all
// replicas reachable; degraded writes would silently diverge the copies.
func (f *File) writeSegment(src []byte, seg Segment) error {
	reps := f.layout.ReplicaCount()
	errs := make(chan error, reps)
	for r := 0; r < reps; r++ {
		go func(r int) {
			errs <- f.writeSegmentReplica(src, seg, r)
		}(r)
	}
	var first error
	for r := 0; r < reps; r++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// writeSegmentReplica stores one segment on replica r through the
// sliding-window path.
func (f *File) writeSegmentReplica(src []byte, seg Segment, r int) error {
	addr, err := f.c.DataAddr(ReplicaServer(f.layout, seg.Slot, r))
	if err != nil {
		return err
	}
	handle := ReplicaHandle(f.handle, r)
	_, err = f.c.pool.WriteWindowed(addr, handle, src, seg.LocalOffset,
		f.c.cfg.WindowDepth, f.c.cfg.TransferChunk)
	if err != nil {
		return fmt.Errorf("pfs: write replica %d: %w", r, err)
	}
	return nil
}

// ReadAll reads the whole file.
func (f *File) ReadAll() ([]byte, error) {
	buf := make([]byte, f.Size())
	n, err := f.ReadAt(buf, 0)
	if err != nil {
		return nil, err
	}
	return buf[:n], nil
}
