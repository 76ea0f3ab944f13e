package pfs

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dosas/internal/transport"
)

// benchCluster boots one meta plus nData data servers on net and returns
// a client configured with the given window depth and transfer chunk.
func benchCluster(b *testing.B, nData int, net transport.Network, depth, chunk int) *Client {
	b.Helper()
	meta, err := NewMetaServer(MetaConfig{NumDataServers: nData})
	if err != nil {
		b.Fatal(err)
	}
	ml, err := net.Listen("meta")
	if err != nil {
		b.Fatal(err)
	}
	ms := NewServer(ml, meta)
	ms.Start()
	b.Cleanup(ms.Close)
	for i := 0; i < nData; i++ {
		ds, err := NewDataServer(DataConfig{Store: NewMemStore()})
		if err != nil {
			b.Fatal(err)
		}
		dl, err := net.Listen(fmt.Sprintf("data-%d", i))
		if err != nil {
			b.Fatal(err)
		}
		srv := NewServer(dl, ds)
		srv.Start()
		b.Cleanup(srv.Close)
	}
	addrs := make([]string, nData)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("data-%d", i)
	}
	c, err := NewClient(ClientConfig{
		Net: net, MetaAddr: "meta", DataAddrs: addrs,
		WindowDepth: depth, TransferChunk: chunk,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	return c
}

func benchFile(b *testing.B, c *Client, size int, width int) *File {
	b.Helper()
	f, err := c.Create("bench/readpath.bin", 1<<20, width)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, size)
	rand.New(rand.NewSource(1)).Read(data)
	if _, err := f.WriteAt(data, 0); err != nil {
		b.Fatal(err)
	}
	return f
}

// BenchmarkReadPathLatency measures ReadAt on a latency-shaped transport
// (250µs one way, the regime of a cross-rack datacenter hop), window
// depth 1 (the serial loop) against the pipelined default. This is the
// benchmark behind the sliding window's existence: serial transfers pay
// two one-way delays per chunk; the window amortises them.
func BenchmarkReadPathLatency(b *testing.B) {
	const size = 8 << 20
	const chunk = 256 << 10
	for _, depth := range []int{1, 2, 4, 8} {
		for _, width := range []int{1, 4} {
			b.Run(fmt.Sprintf("depth=%d/width=%d", depth, width), func(b *testing.B) {
				net := transport.NewDelayed(transport.NewInproc(), 250*time.Microsecond)
				c := benchCluster(b, width, net, depth, chunk)
				f := benchFile(b, c, size, width)
				buf := make([]byte, size)
				b.SetBytes(size)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := f.ReadAt(buf, 0); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkReadPathInproc measures ReadAt on the raw in-process transport
// where latency is negligible: here the win is the pooled buffers — the
// bytes-allocated column should sit far below the ~3× payload the
// unpooled path allocated.
func BenchmarkReadPathInproc(b *testing.B) {
	const size = 32 << 20
	for _, width := range []int{1, 4} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			c := benchCluster(b, width, transport.NewInproc(), 0, 0)
			f := benchFile(b, c, size, width)
			buf := make([]byte, size)
			b.SetBytes(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.ReadAt(buf, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWritePathInproc is the write-side counterpart: the client's
// pooled mux encode buffer and the server-side MuxReader are both on
// this path.
func BenchmarkWritePathInproc(b *testing.B) {
	const size = 32 << 20
	for _, width := range []int{1, 4} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			c := benchCluster(b, width, transport.NewInproc(), 0, 0)
			f := benchFile(b, c, size, width)
			data := make([]byte, size)
			b.SetBytes(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.WriteAt(data, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
