package main

// The mux experiment: control-plane latency under data-plane load.
//
// The contention-aware scheduler depends on timely Probe/Cancel/Ping
// traffic while stripe transfers saturate the link. This experiment runs
// one storage node behind a 64 MB/s shaped link serving a 32 MB windowed
// read in a loop, and measures the round-trip time of Pings issued
// mid-transfer on the same pool (and so the same shared connections).
// Control frames ride the mux writer's priority lane, preempting bulk
// between ≤256 KiB segments, so the RTT stays near one segment's worth of
// link time instead of draining behind the window's in-flight chunks
// (depth × chunk / rate ≈ 250 ms).
//
// A second, unshaped pass (250 µs one-way delay, the readpath regime)
// records windowed bulk throughput over the same framing.

import (
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sort"
	"time"

	"dosas/internal/pfs"
	"dosas/internal/transport"
	"dosas/internal/wire"
)

const (
	muxBenchHandle = 1
	muxBenchSizeMB = 32
	muxBenchChunk  = 4 << 20
	muxBenchDepth  = 4
	muxBenchRate   = 64e6 // bytes/second through the shaped link
)

// muxNode is one standalone data server plus a pool dialing it.
type muxNode struct {
	srv  *pfs.Server
	pool *pfs.Pool
	addr string
}

func startMuxNode(net transport.Network) *muxNode {
	store := pfs.NewMemStore()
	data := make([]byte, muxBenchSizeMB<<20)
	rand.New(rand.NewSource(5)).Read(data)
	if _, err := store.WriteAt(muxBenchHandle, data, 0); err != nil {
		log.Fatal(err)
	}
	ds, err := pfs.NewDataServer(pfs.DataConfig{Store: store})
	if err != nil {
		log.Fatal(err)
	}
	l, err := net.Listen("data-mux")
	if err != nil {
		log.Fatal(err)
	}
	srv := pfs.NewServer(l, ds)
	srv.Start()
	return &muxNode{srv: srv, pool: pfs.NewPool(net), addr: "data-mux"}
}

func (n *muxNode) close() {
	n.pool.Close()
	n.srv.Close()
}

type latencyStats struct {
	P50us   float64 `json:"p50_us"`
	P99us   float64 `json:"p99_us"`
	MaxUs   float64 `json:"max_us"`
	Samples int     `json:"samples"`
}

func summarize(rtts []time.Duration) latencyStats {
	sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
	pct := func(p float64) float64 {
		i := int(p * float64(len(rtts)-1))
		return float64(rtts[i].Microseconds())
	}
	return latencyStats{
		P50us:   pct(0.50),
		P99us:   pct(0.99),
		MaxUs:   float64(rtts[len(rtts)-1].Microseconds()),
		Samples: len(rtts),
	}
}

// muxControl measures ping RTT while a windowed read of the same file
// loops in the background on the same pool (and therefore the same
// shared connections).
func muxControl(pings int) []time.Duration {
	node := startMuxNode(transport.NewShaped(transport.NewInproc(), muxBenchRate))
	defer node.close()

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, muxBenchSizeMB<<20)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := node.pool.ReadWindowed(node.addr, muxBenchHandle, buf, 0, muxBenchDepth, muxBenchChunk); err != nil {
				log.Fatal(err)
			}
		}
	}()
	time.Sleep(100 * time.Millisecond) // let the transfer saturate the link

	var rtts []time.Duration
	for seq := uint64(1); len(rtts) < pings; seq++ {
		start := time.Now()
		if _, err := node.pool.Call(node.addr, &wire.Ping{Seq: seq}); err != nil {
			log.Fatal(err)
		}
		rtts = append(rtts, time.Since(start))
		time.Sleep(20 * time.Millisecond)
	}
	close(stop)
	<-done
	return rtts
}

// muxThroughput measures a 32 MB windowed read in the readpath regime
// (250 µs one-way delay, unshaped) and returns MB/s, best of runs.
func muxThroughput(runs int) float64 {
	node := startMuxNode(transport.NewDelayed(transport.NewInproc(), 250*time.Microsecond))
	defer node.close()

	buf := make([]byte, muxBenchSizeMB<<20)
	best := time.Duration(1<<62 - 1)
	for r := 0; r < runs; r++ {
		start := time.Now()
		if _, err := node.pool.ReadWindowed(node.addr, muxBenchHandle, buf, 0, muxBenchDepth, 256<<10); err != nil {
			log.Fatal(err)
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return float64(muxBenchSizeMB<<20) / best.Seconds() / 1e6
}

// muxExp runs the control-latency-under-load measurement and the bulk
// throughput pass, writing BENCH_mux.json.
func muxExp() {
	header("Mux: control-message latency under a 32 MB windowed read (64 MB/s shaped link)")

	muxed := summarize(muxControl(50))
	fmt.Printf("%-10s %10s %10s %10s %9s\n", "mode", "p50", "p99", "max", "samples")
	fmt.Printf("%-10s %8.1fms %8.1fms %8.1fms %9d\n", "mux",
		muxed.P50us/1e3, muxed.P99us/1e3, muxed.MaxUs/1e3, muxed.Samples)

	const runs = 3
	tputMux := muxThroughput(runs)
	fmt.Printf("\nreadpath throughput, depth %d (250 µs link): mux %.1f MB/s\n", muxBenchDepth, tputMux)

	blob, err := json.MarshalIndent(map[string]any{
		"experiment":     "mux",
		"link_rate_mbps": muxBenchRate / 1e6,
		"bulk": map[string]any{
			"total_mb": muxBenchSizeMB, "chunk_bytes": muxBenchChunk, "depth": muxBenchDepth,
		},
		"control_latency": map[string]latencyStats{"mux": muxed},
		"throughput_mbps": map[string]float64{"mux": tputMux},
	}, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	const out = "BENCH_mux.json"
	if err := os.WriteFile(out, blob, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote control-latency results to %s\n", out)
}
