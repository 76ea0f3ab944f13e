package pfs

import (
	"sync"
	"testing"
	"time"

	"dosas/internal/transport"
	"dosas/internal/wire"
)

// pongHandler answers Pings; anything else is unsupported. block, when
// non-nil, is waited on before answering Pings with Seq >= 1000 —
// deterministic slow-request injection. panicSeq, when non-zero, panics.
type pongHandler struct {
	block    chan struct{}
	panicSeq uint64
}

func (h *pongHandler) Handle(m wire.Message) (wire.Message, error) {
	ping, ok := m.(*wire.Ping)
	if !ok {
		return nil, ErrUnsupported
	}
	if h.panicSeq != 0 && ping.Seq == h.panicSeq {
		panic("injected handler panic")
	}
	if h.block != nil && ping.Seq >= 1000 {
		<-h.block
	}
	return &wire.Pong{Seq: ping.Seq}, nil
}

// startPongServer runs a Server over Inproc and returns the network, the
// address, and the server (already started, cleaned up with the test).
func startPongServer(t *testing.T, h Handler) (*transport.Inproc, string, *Server) {
	t.Helper()
	n := transport.NewInproc()
	l, err := n.Listen("peer")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(l, h)
	srv.Start()
	t.Cleanup(srv.Close)
	return n, "peer", srv
}

func counter(t *testing.T, p *Pool, name string) int64 {
	t.Helper()
	return p.Metrics().Counter(name).Value()
}

// Concurrent calls to a mux-capable peer must multiplex over the shared
// connection set instead of dialing per call, and must complete out of
// order: with every shared connection saturated by blocked requests, a
// fast request still gets through.
func TestMuxCallsShareConnectionsAndCompleteOutOfOrder(t *testing.T) {
	h := &pongHandler{block: make(chan struct{})}
	n, addr, _ := startPongServer(t, h)
	p := NewPool(n)
	defer p.Close()

	const slow = 4
	var wg sync.WaitGroup
	for i := 0; i < slow; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := p.Call(addr, &wire.Ping{Seq: uint64(1000 + i)}); err != nil {
				t.Errorf("slow call %d: %v", i, err)
			}
		}(i)
	}
	// Wait until all slow requests are in flight server-side, so both
	// shared connections are carrying blocked requests.
	deadline := time.Now().Add(5 * time.Second)
	for p.Metrics().Gauge("pool.mux.streams").Value() < slow {
		if time.Now().After(deadline) {
			t.Fatalf("only %d slow calls in flight", p.Metrics().Gauge("pool.mux.streams").Value())
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := p.Call(addr, &wire.Ping{Seq: 7})
	if err != nil {
		t.Fatalf("fast call while peers blocked: %v", err)
	}
	if resp.(*wire.Pong).Seq != 7 {
		t.Fatalf("fast call got %v", resp)
	}
	close(h.block)
	wg.Wait()

	if d := counter(t, p, "pool.dials"); d > MuxConnsPerAddr {
		t.Errorf("%d dials for %d concurrent calls, want <= %d shared conns", d, slow+1, MuxConnsPerAddr)
	}
	if c := counter(t, p, "pool.mux.calls"); c != slow+1 {
		t.Errorf("pool.mux.calls = %d, want %d", c, slow+1)
	}
	if s := p.Metrics().Gauge("pool.mux.streams").Value(); s != 0 {
		t.Errorf("pool.mux.streams = %d after all calls done, want 0", s)
	}
}

// A panicking handler must produce a StatusInternal error response and
// leave the connection serving. Before the recover was added, a panic
// killed the connection goroutine with no response.
func TestServerRecoversHandlerPanic(t *testing.T) {
	t.Run("mux", func(t *testing.T) {
		n, addr, _ := startPongServer(t, &pongHandler{panicSeq: 666})
		p := NewPool(n)
		defer p.Close()

		if _, err := p.Call(addr, &wire.Ping{Seq: 1}); err != nil {
			t.Fatalf("warmup call: %v", err)
		}
		_, err := p.Call(addr, &wire.Ping{Seq: 666})
		re, ok := err.(*RemoteError)
		if !ok || re.Code != wire.StatusInternal {
			t.Fatalf("panic call: err = %v, want StatusInternal RemoteError", err)
		}
		if _, err := p.Call(addr, &wire.Ping{Seq: 2}); err != nil {
			t.Fatalf("call after panic: %v", err)
		}
		// The connection must have survived the panic: no redial
		// beyond the lazily-dialed shared set.
		want := int64(MuxConnsPerAddr)
		if d := counter(t, p, "pool.dials"); d > want {
			t.Errorf("pool.dials = %d, want <= %d (conn should survive the panic)", d, want)
		}
	})
}

// Streams over mux keep the pipelined request-order contract, and
// Release with responses still pending must not poison the shared
// connection for subsequent callers.
func TestStreamOverMux(t *testing.T) {
	n, addr, _ := startPongServer(t, &pongHandler{})
	p := NewPool(n)
	defer p.Close()

	s, err := p.Stream(addr)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := s.Send(&wire.Ping{Seq: seq}); err != nil {
			t.Fatalf("send %d: %v", seq, err)
		}
	}
	for seq := uint64(1); seq <= 3; seq++ {
		resp, err := s.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", seq, err)
		}
		if resp.(*wire.Pong).Seq != seq {
			t.Fatalf("recv %d got %v (order broken)", seq, resp)
		}
	}
	s.Release()

	// Abandon a stream mid-flight; the shared conn must stay healthy.
	s2, err := p.Stream(addr)
	if err != nil {
		t.Fatal(err)
	}
	s2.Send(&wire.Ping{Seq: 10}) //nolint:errcheck
	s2.Send(&wire.Ping{Seq: 11}) //nolint:errcheck
	s2.Release()

	if _, err := p.Call(addr, &wire.Ping{Seq: 12}); err != nil {
		t.Fatalf("call after abandoned stream: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.Metrics().Gauge("pool.mux.streams").Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pool.mux.streams stuck at %d", p.Metrics().Gauge("pool.mux.streams").Value())
		}
		time.Sleep(time.Millisecond)
	}
}

// Mux calls must transparently retry once on a fresh connection when the
// shared connection went stale across a server restart.
func TestMuxSurvivesServerRestart(t *testing.T) {
	n := transport.NewInproc()
	l, err := n.Listen("restart")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(l, &pongHandler{})
	srv.Start()

	p := NewPool(n)
	defer p.Close()
	if _, err := p.Call("restart", &wire.Ping{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	l2, err := n.Listen("restart")
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(l2, &pongHandler{})
	srv2.Start()
	defer srv2.Close()

	if _, err := p.Call("restart", &wire.Ping{Seq: 2}); err != nil {
		t.Fatalf("call after restart: %v", err)
	}
	if c := counter(t, p, "pool.dials"); c < 2 {
		t.Errorf("pool.dials = %d, want >= 2 (redial after restart)", c)
	}
}
