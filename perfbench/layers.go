package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dosas"
	"dosas/internal/audit"
	"dosas/internal/core"
	"dosas/internal/kernels"
	"dosas/internal/pfs"
	"dosas/internal/transport"
	"dosas/internal/wire"
)

// probeTime bounds each direct per-layer probe.
const probeTime = 300 * time.Millisecond

// procCounters is a snapshot of process- and host-wide counters; the
// difference of two snapshots covers a phase.
type procCounters struct {
	cpu              time.Duration // user + system CPU of this process
	alloc            uint64        // bytes allocated on the Go heap
	gcCPU, totalCPU  float64       // Go runtime CPU accounting, seconds
	steal, hostTotal uint64        // host CPU time from /proc/stat, ticks
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readProc() procCounters {
	var p procCounters
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.alloc = ms.TotalAlloc
	metrics.Read(cpuSamples)
	if cpuSamples[0].Value.Kind() == metrics.KindFloat64 {
		p.gcCPU = cpuSamples[0].Value.Float64()
		p.totalCPU = cpuSamples[1].Value.Float64()
	}
	p.steal, p.hostTotal = hostCPU()
	return p
}

// hostCPU returns the steal and total ticks of the aggregate cpu line of
// /proc/stat (zero where the file is unavailable).
func hostCPU() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, s := range fields[1:] {
		v, _ := strconv.ParseUint(s, 10, 64)
		if i < 8 { // guest time is already inside user and nice
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// rssMB is the process's current resident set in MiB.
func rssMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("short /proc/self/statm")
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, err
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// watchRSS samples the resident set every period until stop is closed,
// then sends the highest value seen.
func watchRSS(period time.Duration, stop <-chan struct{}, peak chan<- float64) {
	t := time.NewTicker(period)
	defer t.Stop()
	var max float64
	for {
		if v, err := rssMB(); err == nil && v > max {
			max = v
		}
		select {
		case <-stop:
			peak <- max
			return
		case <-t.C:
		}
	}
}

// allocated is the space a file occupies on disk.
func allocated(info os.FileInfo) int64 {
	if st, ok := info.Sys().(*syscall.Stat_t); ok {
		return st.Blocks * 512
	}
	return info.Size()
}

// dataDirUsage sums the bytes the data directory's files occupy on disk
// (allocated blocks, not logical sizes).
func dataDirUsage(dir string) int64 {
	var total int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += allocated(info)
		}
		return nil
	})
	return total
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("0x%x", st.Type)
	}
}

// chunkFor is the size of the storage-node requests a plain read or
// write of n bytes produces: the client splits it into per-stripe
// segments and sends one request per segment.
func chunkFor(n int) int { return min(n, stripe) }

// probeKernel runs op directly over streams, repeatedly, for about
// probeTime and returns its rate in MB/s.
func probeKernel(op string, params []byte, streams [][]byte) (float64, error) {
	var n int64
	start := time.Now()
	for time.Since(start) < probeTime {
		for _, s := range streams {
			k, err := kernels.New(op)
			if err != nil {
				return 0, err
			}
			if err := k.Configure(params); err != nil {
				return 0, err
			}
			if err := k.Process(s); err != nil {
				return 0, err
			}
			if _, err := k.Result(); err != nil {
				return 0, err
			}
			n += int64(len(s))
		}
	}
	return float64(n) / time.Since(start).Seconds() / 1e6, nil
}

// probeStore times the extent store directly at the given read and write
// sizes, in a fresh store under dir, and returns the median call time of
// each in microseconds.
func probeStore(dir string, readSize, writeSize int) (readUS, writeUS float64, err error) {
	st, err := pfs.NewExtentStore(pfs.ExtentConfig{Dir: dir})
	if err != nil {
		return 0, 0, err
	}
	defer st.Close()
	const span = 32 << 20
	buf := make([]byte, max(readSize, writeSize))
	fill(buf, 1, 1)
	var writes, reads []float64
	start := time.Now()
	for off := 0; off+writeSize <= span && (len(writes) < 16 || time.Since(start) < probeTime); off += writeSize {
		t := time.Now()
		if _, err := st.WriteAt(1, buf[:writeSize], uint64(off)); err != nil {
			return 0, 0, err
		}
		writes = append(writes, float64(time.Since(t))/1e3)
	}
	// Reads cover the written span so they hit the page cache, as the
	// benchmark's datasets do.
	written := len(writes) * writeSize
	start = time.Now()
	for i := 0; len(reads) < 16 || time.Since(start) < probeTime; i++ {
		off := (i * readSize) % max(written-readSize+1, 1)
		t := time.Now()
		if _, err := st.ReadAt(1, buf[:readSize], uint64(off)); err != nil {
			return 0, 0, err
		}
		reads = append(reads, float64(time.Since(t))/1e3)
		if len(reads) >= 4096 {
			break
		}
	}
	return median(reads), median(writes), nil
}

// codecMix is the set of wire messages a workload's operations exchange,
// with its bodies at the sizes the run uses.
func codecMix(wl *workload) []wire.Message {
	rc, wc := chunkFor(wl.readSize), chunkFor(wl.writeSize)
	mix := []wire.Message{
		&wire.ReadReq{Handle: 7, Offset: 1 << 20, Length: uint32(rc)},
		&wire.ReadResp{Data: make([]byte, rc)},
	}
	switch wl.a {
	case clsActive:
		mix = append(mix,
			&wire.ActiveReadReq{RequestID: 9, Handle: 7, Length: uint64(wl.files[0].size / width), Op: "gaussian2d",
				Params: dosas.GaussianParams(gaussWidth, false), TraceID: 1 << 40},
			&wire.ActiveReadResp{RequestID: 9, Result: make([]byte, 29), TraceID: 1 << 40})
	case clsMeta:
		layout := wire.Layout{StripeSize: stripe, Servers: []uint32{0, 1, 2, 3}}
		mix = append(mix,
			&wire.CreateReq{Name: smallPrefix + "00000001"},
			&wire.CreateResp{Handle: 7, Layout: layout},
			&wire.StatReq{Name: smallPrefix + "00000001"},
			&wire.StatResp{Handle: 7, Size: 4096, Layout: layout},
			&wire.RemoveReq{Name: smallPrefix + "00000001"},
			&wire.RemoveResp{Handle: 7})
	}
	if wl.a == clsMeta || wl.a == clsWrite || wl.b == clsWrite {
		mix = append(mix, &wire.WriteReq{Handle: 7, Data: make([]byte, wc)}, &wire.WriteResp{N: uint32(wc)})
	}
	return mix
}

// probeCodec encodes and decodes the mix repeatedly for about probeTime
// and returns the mean nanoseconds per message round trip.
func probeCodec(mix []wire.Message) (float64, error) {
	var buf bytes.Buffer
	n := 0
	start := time.Now()
	for time.Since(start) < probeTime {
		for _, m := range mix {
			buf.Reset()
			if err := wire.WriteMessage(&buf, m); err != nil {
				return 0, err
			}
			if _, err := wire.ReadMessage(&buf); err != nil {
				return 0, err
			}
			n++
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n), nil
}

// probeRTT measures one-byte round trips over a TCP loopback connection
// from the transport layer and returns the median in microseconds.
func probeRTT() (float64, error) {
	l, err := transport.TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	echoed := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer c.Close()
		_, err = io.Copy(c, c)
		echoed <- err
	}()
	c, err := transport.TCP{}.Dial(l.Addr())
	if err != nil {
		return 0, err
	}
	var rtts []float64
	b := []byte{1}
	const warm, timed = 200, 2000
	for i := 0; i < warm+timed; i++ {
		t := time.Now()
		if _, err := c.Write(b); err != nil {
			c.Close()
			return 0, err
		}
		if _, err := io.ReadFull(c, b); err != nil {
			c.Close()
			return 0, err
		}
		if i >= warm {
			rtts = append(rtts, float64(time.Since(t))/1e3)
		}
	}
	c.Close()
	if err := <-echoed; err != nil {
		return 0, err
	}
	return median(rtts), nil
}

// probeSolve re-solves every logged admission decision with the
// cluster's solver and returns the median time of one Solve in
// microseconds (0 when nothing was logged).
func probeSolve(records []dosas.DecisionRecord) float64 {
	var us []float64
	solver := core.MaxGain{}
	const reps = 20
	for _, r := range records {
		if r.Trigger != audit.TriggerAdmit || len(r.Reqs) == 0 {
			continue
		}
		reqs := make([]core.Request, len(r.Reqs))
		for i, f := range r.Reqs {
			reqs[i] = core.Request{ID: f.SchedID, Op: f.Op, Bytes: f.Bytes, ResultBytes: f.ResultBytes,
				StorageRate: f.StorageRate, ComputeRate: f.ComputeRate}
		}
		env := core.Env{BW: r.Env.BW, StorageRate: r.Env.StorageRate, ComputeRate: r.Env.ComputeRate}
		t := time.Now()
		for i := 0; i < reps; i++ {
			solver.Solve(reqs, env)
		}
		us = append(us, float64(time.Since(t))/1e3/reps)
	}
	return median(us)
}

// replayDecisions scores the logged decisions against the per-request
// oracle: the share of decision cost that was regret, and the share of
// decisions that picked the cheaper side.
func replayDecisions(records []dosas.DecisionRecord) (regretFrac, agreeFrac float64, err error) {
	rep, err := dosas.ReplayDecisions(records, "recorded", dosas.ReplayOverrides{})
	if err != nil || rep.Decisions == 0 {
		return 0, 0, err
	}
	agree := 0
	for _, v := range rep.PerRequest {
		if v.Regret <= 0 {
			agree++
		}
	}
	if rep.TotalSeconds > 0 {
		regretFrac = rep.RegretSeconds / rep.TotalSeconds
	}
	return regretFrac, float64(agree) / float64(rep.Decisions), nil
}
