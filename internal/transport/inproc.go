package transport

import (
	"fmt"
	"net"
	"sync"
)

// Inproc is an in-process Network: every Listen registers a name in a
// shared table and Dial connects through a buffered duplex pipe. It lets an
// entire DOSAS cluster — metadata server, storage servers, many clients —
// run inside one test binary with no sockets, which keeps integration tests
// hermetic and fast.
//
// The zero value is ready to use; distinct Inproc values are distinct
// networks.
type Inproc struct {
	mu     sync.Mutex
	tab    map[string]*inprocListener
	nextID int
}

// NewInproc returns an empty in-process network.
func NewInproc() *Inproc { return &Inproc{} }

// Listen registers addr. An empty addr picks a fresh unique name.
func (n *Inproc) Listen(addr string) (Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.tab == nil {
		n.tab = make(map[string]*inprocListener)
	}
	if addr == "" {
		n.nextID++
		addr = fmt.Sprintf("inproc-%d", n.nextID)
	}
	if _, ok := n.tab[addr]; ok {
		return nil, fmt.Errorf("transport: inproc address %q already bound", addr)
	}
	l := &inprocListener{
		net:     n,
		addr:    addr,
		backlog: make(chan net.Conn, 64),
		done:    make(chan struct{}),
	}
	n.tab[addr] = l
	return l, nil
}

// Dial connects to a registered addr.
func (n *Inproc) Dial(addr string) (net.Conn, error) {
	n.mu.Lock()
	l, ok := n.tab[addr]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: inproc dial %q: no listener", addr)
	}
	client, server := Pipe(addr)
	select {
	case l.backlog <- server:
	case <-l.done:
		return nil, ErrClosed
	}
	// A Close racing the send may have drained the backlog before the
	// conn landed in it; hang the conn up here rather than leave the
	// dialer blocked on a peer that will never accept it.
	select {
	case <-l.done:
		server.Close()
		client.Close()
		return nil, ErrClosed
	default:
		return client, nil
	}
}

func (n *Inproc) unbind(addr string) {
	n.mu.Lock()
	delete(n.tab, addr)
	n.mu.Unlock()
}

type inprocListener struct {
	net     *Inproc
	addr    string
	backlog chan net.Conn
	done    chan struct{}
	once    sync.Once
}

func (l *inprocListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

// Close also hangs up every dialed conn still waiting to be accepted,
// so its dialer reads EOF instead of blocking forever, as a TCP peer
// whose listener closed would be reset.
func (l *inprocListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.net.unbind(l.addr)
		for {
			select {
			case c := <-l.backlog:
				c.Close()
			default:
				return
			}
		}
	})
	return nil
}

func (l *inprocListener) Addr() string { return l.addr }
