package dosas_test

// One benchmark per table and figure of the paper's evaluation, plus
// ablation and substrate micro-benchmarks. Simulated experiments report
// the modelled execution time as "sim-sec/run" (the y-axis of the paper's
// figures); live benchmarks measure wall-clock time on an in-process
// cluster. cmd/dosas-bench prints the same data as labelled rows.

import (
	"fmt"
	"testing"

	"dosas"
	"dosas/internal/core"
	"dosas/internal/kernels"
	"dosas/internal/sim"
	"dosas/internal/workload"
)

// simPoint runs one simulated experiment point under b.N and reports the
// modelled makespan and achieved bandwidth.
func simPoint(b *testing.B, scheme core.Scheme, n int, bytes uint64, op string) {
	b.Helper()
	var m sim.Metrics
	var err error
	for i := 0; i < b.N; i++ {
		m, err = sim.Run(sim.Config{
			Scheme: scheme, Requests: n, BytesPerRequest: bytes, Op: op,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(m.Makespan, "sim-sec/run")
	b.ReportMetric(m.Bandwidth/1e6, "sim-MB/s")
}

// figure runs a TS/AS(/DOSAS) sweep across the paper's request scales.
func figure(b *testing.B, schemes []core.Scheme, bytes uint64, op string) {
	b.Helper()
	for _, scheme := range schemes {
		for _, n := range sim.PaperScales {
			b.Run(fmt.Sprintf("%s/n=%d", scheme, n), func(b *testing.B) {
				simPoint(b, scheme, n, bytes, op)
			})
		}
	}
}

var tsas = []core.Scheme{core.SchemeTS, core.SchemeAS}

// BenchmarkTable3KernelRates regenerates Table III: the per-core
// processing rate of each kernel on this host, in MB/s. Each case streams
// 8 MiB through a fresh kernel in chunks of the given size (0 = one
// call). The gaussian2d/w1024 case is the shape the runtime sees: the
// 1024-pixel rows clients send, fed in the runtime's 1 MiB chunks.
func BenchmarkTable3KernelRates(b *testing.B) {
	cases := []struct {
		name   string
		op     string
		params []byte
		chunk  int
	}{
		{"sum8", "sum8", nil, 0},
		{"gaussian2d", "gaussian2d", kernels.GaussianParams(4096, false), 0},
		{"gaussian2d/w1024", "gaussian2d", kernels.GaussianParams(1024, false), 1 << 20},
		{"sum64", "sum64", nil, 0},
		{"minmax", "minmax", nil, 0},
		{"moments", "moments", nil, 0},
		{"histogram", "histogram", nil, 0},
		{"count", "count", []byte("needle"), 0},
		{"wordcount", "wordcount", nil, 0},
		{"downsample", "downsample", kernels.DownsampleParams(16), 0},
	}
	data := workload.RandomBytes(8<<20, 1)
	for _, tc := range cases {
		chunk := tc.chunk
		if chunk == 0 {
			chunk = len(data)
		}
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k, err := kernels.New(tc.op)
				if err != nil {
					b.Fatal(err)
				}
				if err := k.Configure(tc.params); err != nil {
					b.Fatal(err)
				}
				for off := 0; off < len(data); off += chunk {
					if err := k.Process(data[off:min(off+chunk, len(data))]); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := k.Result(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig2GaussianContention is Figure 2: Gaussian under TS vs AS,
// 128 MB per request — AS degrades past 4 concurrent requests.
func BenchmarkFig2GaussianContention(b *testing.B) {
	figure(b, tsas, 128*sim.MB, "gaussian2d")
}

// BenchmarkFig4Gaussian128MB is Figure 4 (the paper re-plots Figure 2's
// configuration in its results section).
func BenchmarkFig4Gaussian128MB(b *testing.B) {
	figure(b, tsas, 128*sim.MB, "gaussian2d")
}

// BenchmarkFig5Gaussian512MB is Figure 5: the crossover at 512 MB
// requests.
func BenchmarkFig5Gaussian512MB(b *testing.B) {
	figure(b, tsas, 512*sim.MB, "gaussian2d")
}

// BenchmarkFig6Sum128MB is Figure 6: SUM under TS vs AS — AS wins at
// every scale.
func BenchmarkFig6Sum128MB(b *testing.B) {
	figure(b, tsas, 128*sim.MB, "sum8")
}

// BenchmarkTable4SchedulerAccuracy is Table IV: the scheduling
// algorithm's decisions against noisy practice across all 56 situations.
func BenchmarkTable4SchedulerAccuracy(b *testing.B) {
	var acc float64
	for i := 0; i < b.N; i++ {
		sits, err := sim.ScheduleAccuracy(int64(2012 + i))
		if err != nil {
			b.Fatal(err)
		}
		acc = sim.AccuracyRate(sits)
	}
	b.ReportMetric(acc*100, "accuracy-%")
}

// BenchmarkFig7DOSAS128MB through BenchmarkFig10DOSAS1GB are Figures
// 7–10: DOSAS vs AS vs TS execution time at each request size.
func BenchmarkFig7DOSAS128MB(b *testing.B) {
	figure(b, sim.PaperSchemes, 128*sim.MB, "gaussian2d")
}

func BenchmarkFig8DOSAS256MB(b *testing.B) {
	figure(b, sim.PaperSchemes, 256*sim.MB, "gaussian2d")
}

func BenchmarkFig9DOSAS512MB(b *testing.B) {
	figure(b, sim.PaperSchemes, 512*sim.MB, "gaussian2d")
}

func BenchmarkFig10DOSAS1GB(b *testing.B) {
	figure(b, sim.PaperSchemes, 1024*sim.MB, "gaussian2d")
}

// BenchmarkFig11Bandwidth256MB and BenchmarkFig12Bandwidth512MB are
// Figures 11–12: achieved bandwidth per scheme (the sim-MB/s metric).
func BenchmarkFig11Bandwidth256MB(b *testing.B) {
	figure(b, sim.PaperSchemes, 256*sim.MB, "gaussian2d")
}

func BenchmarkFig12Bandwidth512MB(b *testing.B) {
	figure(b, sim.PaperSchemes, 512*sim.MB, "gaussian2d")
}

// BenchmarkSolvers is the solver ablation: the paper's exhaustive 2^k
// enumeration vs the closed-form MaxGain optimum, by queue depth.
func BenchmarkSolvers(b *testing.B) {
	env := core.Env{BW: 118e6, StorageRate: 80e6, ComputeRate: 80e6}
	mkReqs := func(k int) []core.Request {
		reqs := make([]core.Request, k)
		for i := range reqs {
			reqs[i] = core.Request{
				ID:          uint64(i + 1),
				Bytes:       uint64(64+i*13%512) * sim.MB,
				ResultBytes: 29,
			}
		}
		return reqs
	}
	for _, k := range []int{4, 8, 12, 16, 20} {
		reqs := mkReqs(k)
		b.Run(fmt.Sprintf("exhaustive/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Exhaustive{}.Solve(reqs, env)
			}
		})
	}
	for _, k := range []int{4, 20, 100, 1000} {
		reqs := mkReqs(k)
		b.Run(fmt.Sprintf("maxgain/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.MaxGain{}.Solve(reqs, env)
			}
		})
	}
}

// BenchmarkMigrationAblation compares DOSAS with and without
// interrupt-and-migrate at a heavily contended point.
func BenchmarkMigrationAblation(b *testing.B) {
	for _, mig := range []bool{true, false} {
		mig := mig
		b.Run(fmt.Sprintf("migration=%v", mig), func(b *testing.B) {
			var m sim.Metrics
			var err error
			for i := 0; i < b.N; i++ {
				m, err = sim.Run(sim.Config{
					Scheme: core.SchemeDOSAS, Requests: 32,
					BytesPerRequest: 128 * sim.MB, Op: "gaussian2d",
					Migration: &mig,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(m.Makespan, "sim-sec/run")
		})
	}
}

// BenchmarkMixedSizes is the heterogeneous ablation: request sizes spread
// over an order of magnitude, where mixed (non-all-or-nothing) schedules
// win.
func BenchmarkMixedSizes(b *testing.B) {
	env := core.Env{BW: 118e6, StorageRate: 80e6, ComputeRate: 80e6}
	reqs := []core.Request{
		{ID: 1, Bytes: 32 * sim.MB, ResultBytes: 29, StorageRate: 860e6, ComputeRate: 860e6},
		{ID: 2, Bytes: 128 * sim.MB, ResultBytes: 29},
		{ID: 3, Bytes: 512 * sim.MB, ResultBytes: 29},
		{ID: 4, Bytes: 1024 * sim.MB, ResultBytes: 29},
		{ID: 5, Bytes: 1024 * sim.MB, ResultBytes: 29},
	}
	var t float64
	for i := 0; i < b.N; i++ {
		a := core.MaxGain{}.Solve(reqs, env)
		t = env.TotalTime(reqs, a)
	}
	b.ReportMetric(t, "sim-sec/run")
	b.ReportMetric(env.TimeAllActive(reqs), "sim-sec-AS")
	b.ReportMetric(env.TimeAllNormal(reqs), "sim-sec-TS")
}

// BenchmarkSkewAblation sweeps hot-spot load placement over a 4-node
// deployment.
func BenchmarkSkewAblation(b *testing.B) {
	for _, skew := range []float64{0, 0.5, 0.9} {
		skew := skew
		for _, scheme := range sim.PaperSchemes {
			scheme := scheme
			b.Run(fmt.Sprintf("%s/skew=%.1f", scheme, skew), func(b *testing.B) {
				var m sim.Metrics
				var err error
				for i := 0; i < b.N; i++ {
					m, err = sim.Run(sim.Config{
						Scheme: scheme, Requests: 32, BytesPerRequest: 128 * sim.MB,
						Op: "gaussian2d", StorageNodes: 4, Skew: skew, Seed: 11,
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(m.Makespan, "sim-sec/run")
			})
		}
	}
}

// BenchmarkTransform measures the active write-back path end to end on a
// live cluster: a full-image Gaussian filtered in place on the storage
// node.
func BenchmarkTransform(b *testing.B) {
	cluster, err := dosas.StartCluster(dosas.Options{DataServers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	fs, err := cluster.Connect(dosas.AS)
	if err != nil {
		b.Fatal(err)
	}
	defer fs.Close()
	const w, h = 1024, 1024
	f, err := fs.Create("bench/xf", dosas.CreateOptions{Width: 1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := f.WriteAt(workload.SyntheticImage(w, h, 1), 0); err != nil {
		b.Fatal(err)
	}
	params := dosas.GaussianParams(w, true)
	b.SetBytes(w * h)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _, err := f.TransformTo(fmt.Sprintf("bench/xf-out-%d", i), "gaussian2d", params)
		if err != nil {
			b.Fatal(err)
		}
		_ = dst
	}
}

// BenchmarkLiveSchemes runs the three schemes end to end on a real
// in-process cluster (4 requests × 2 MB against one storage node),
// measuring wall-clock time with real kernels and real bytes.
func BenchmarkLiveSchemes(b *testing.B) {
	for _, scheme := range []dosas.Scheme{dosas.TS, dosas.AS, dosas.DOSAS} {
		scheme := scheme
		b.Run(scheme.String(), func(b *testing.B) {
			cluster, err := dosas.StartCluster(dosas.Options{DataServers: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer cluster.Close()
			fs, err := cluster.Connect(scheme)
			if err != nil {
				b.Fatal(err)
			}
			defer fs.Close()
			const reqBytes = 2 << 20
			f, err := fs.Create("bench/live", dosas.CreateOptions{Width: 1})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := f.WriteAt(workload.RandomBytes(4*reqBytes, 1), 0); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(4 * reqBytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				done := make(chan error, 4)
				for r := 0; r < 4; r++ {
					go func(r int) {
						_, err := f.ReadEx("sum8", nil, uint64(r*reqBytes), reqBytes)
						done <- err
					}(r)
				}
				for r := 0; r < 4; r++ {
					if err := <-done; err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkPFSThroughput measures raw striped read/write throughput of
// the parallel file system substrate over the in-process transport.
func BenchmarkPFSThroughput(b *testing.B) {
	cluster, err := dosas.StartCluster(dosas.Options{DataServers: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	fs, err := cluster.Connect(dosas.TS)
	if err != nil {
		b.Fatal(err)
	}
	defer fs.Close()
	const size = 8 << 20
	data := workload.RandomBytes(size, 2)
	f, err := fs.Create("bench/pfs", dosas.CreateOptions{StripeSize: 256 << 10})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("write", func(b *testing.B) {
		b.SetBytes(size)
		for i := 0; i < b.N; i++ {
			if _, err := f.WriteAt(data, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		b.SetBytes(size)
		buf := make([]byte, size)
		for i := 0; i < b.N; i++ {
			if _, err := f.ReadAt(buf, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkKernelCheckpoint measures the cost of the migration mechanism:
// checkpointing and restoring each kernel mid-stream.
func BenchmarkKernelCheckpoint(b *testing.B) {
	for _, op := range []string{"sum8", "gaussian2d", "histogram"} {
		op := op
		b.Run(op, func(b *testing.B) {
			params := []byte(nil)
			if op == "gaussian2d" {
				params = kernels.GaussianParams(1024, false)
			}
			k, err := kernels.New(op)
			if err != nil {
				b.Fatal(err)
			}
			if err := k.Configure(params); err != nil {
				b.Fatal(err)
			}
			if err := k.Process(workload.RandomBytes(1<<20, 3)); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				state, err := k.Checkpoint()
				if err != nil {
					b.Fatal(err)
				}
				k2, _ := kernels.New(op)
				k2.Configure(params)
				if err := k2.Restore(state); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
