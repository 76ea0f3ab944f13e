package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"dosas"

	"dosas/internal/workload"
)

// readPathZeroCopy measures the serving-side cost of a 32 MB windowed
// read for the two stores a data server can run on, both over the mux
// framing:
//
//	staged    in-memory store: the stripe is read into a pooled buffer
//	          and encoded into the frame buffer (two user-space copies
//	          per served byte)
//	sendfile  extent store: the kernel moves extent bytes straight to
//	          the socket; only the segment headers and the frame's head
//	          and tail leave through vectored writes
//
// Alongside wall-clock throughput it reports the per-mode accounting the
// data plane keeps: data.bytes_copied + wire.copied_bytes (user-space
// copies of served payload), wire.sendfile_bytes, wire.writev_calls, and
// the Go heap allocated per read.
func readPathZeroCopy() {
	header("Read path: user-space copies per served byte (32 MB windowed reads, loopback TCP)")
	const sizeMB = 32
	const runs = 5

	type row struct {
		Mode          string  `json:"mode"`
		Seconds       float64 `json:"seconds"`
		MBps          float64 `json:"mbps"`
		CopiedBytes   int64   `json:"copied_bytes"`
		CopiedPerByte float64 `json:"copied_per_byte"`
		SendfileBytes int64   `json:"sendfile_bytes"`
		WritevCalls   int64   `json:"writev_calls"`
		AllocPerReadB int64   `json:"alloc_per_read_bytes"`
	}
	var rows []row

	copied := func(st dosas.StatsSnapshot) int64 {
		return st.Counter("data.bytes_copied") + st.Counter("wire.copied_bytes")
	}

	measure := func(mode string, opts dosas.Options) {
		cluster, err := dosas.StartCluster(opts)
		if err != nil {
			log.Fatal(err)
		}
		defer cluster.Close()
		fs, err := cluster.Connect(dosas.TS)
		if err != nil {
			log.Fatal(err)
		}
		defer fs.Close()
		f, err := fs.Create("bench/zerocopy", dosas.CreateOptions{Width: 1, StripeSize: 1 << 20})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := f.WriteAt(workload.RandomBytes(sizeMB<<20, 7), 0); err != nil {
			log.Fatal(err)
		}
		buf := make([]byte, sizeMB<<20)
		// Warm page cache, fd cache, and connection pool off the clock.
		if _, err := f.ReadAt(buf, 0); err != nil {
			log.Fatal(err)
		}

		before := cluster.Stats()["data-0"]
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		best := time.Duration(1<<62 - 1)
		for r := 0; r < runs; r++ {
			t0 := time.Now()
			if _, err := f.ReadAt(buf, 0); err != nil {
				log.Fatal(err)
			}
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		runtime.ReadMemStats(&ms1)
		after := cluster.Stats()["data-0"]

		served := int64(runs) * sizeMB << 20
		r := row{
			Mode:          mode,
			Seconds:       best.Seconds(),
			MBps:          float64(sizeMB<<20) / best.Seconds() / 1e6,
			CopiedBytes:   copied(after) - copied(before),
			SendfileBytes: after.Counter("wire.sendfile_bytes") - before.Counter("wire.sendfile_bytes"),
			WritevCalls:   after.Counter("wire.writev_calls") - before.Counter("wire.writev_calls"),
			AllocPerReadB: int64(ms1.TotalAlloc-ms0.TotalAlloc) / int64(runs),
		}
		r.CopiedPerByte = float64(r.CopiedBytes) / float64(served)
		rows = append(rows, r)
		fmt.Printf("%-14s %9.2f MB/s   copied/byte %5.2f   sendfile %6d MB   writev %5d   alloc/read %8d KB\n",
			mode, r.MBps, r.CopiedPerByte, r.SendfileBytes>>20, r.WritevCalls, r.AllocPerReadB>>10)
	}

	base := dosas.Options{
		DataServers:   1,
		Policy:        dosas.AlwaysBounce,
		TCP:           true,
		TelemetryTick: -1,
	}

	measure("staged", base)

	sendfile := base
	sendfile.DataDir = benchTempDir("sendfile")
	defer os.RemoveAll(sendfile.DataDir)
	measure("sendfile", sendfile)

	blob, err := json.MarshalIndent(map[string]any{
		"experiment": "readpath-zerocopy",
		"size_mb":    sizeMB,
		"runs":       runs,
		"results":    rows,
	}, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	const out = "BENCH_readpath_zerocopy.json"
	if err := os.WriteFile(out, blob, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote copy-accounting matrix to %s\n", out)
	fmt.Println("(expect staged ≈ 2 copies/byte and sendfile ≈ 0, with the served")
	fmt.Println(" bytes showing up under sendfile_bytes instead)")
}

// benchTempDir makes a throwaway data directory for one bench cluster.
func benchTempDir(tag string) string {
	dir, err := os.MkdirTemp("", "dosas-bench-"+tag+"-")
	if err != nil {
		log.Fatal(err)
	}
	return dir
}
