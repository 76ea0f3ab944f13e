package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"dosas"
	"dosas/internal/trace"
)

// clusterCounters is the slice of cluster state a traced phase diffs.
type clusterCounters struct {
	stats     map[string]dosas.StatsSnapshot
	queueWait uint64 // tenant-attributed queue nanoseconds, all nodes
	tenantOps uint64 // tenant-attributed data operations, all nodes
	walBytes  int64
	proc      procCounters
}

func readCluster(e *env) clusterCounters {
	cc := clusterCounters{stats: e.c.Stats(), proc: readProc()}
	for _, rep := range e.c.Tenants() {
		for _, u := range rep.Usage {
			cc.queueWait += u.QueueWaitNanos
			cc.tenantOps += u.ReadOps + u.WriteOps + u.TruncOps + u.ActiveOps + u.TransformOps
		}
	}
	if info, err := os.Stat(filepath.Join(e.dir, "meta.wal")); err == nil {
		cc.walBytes = info.Size()
	}
	return cc
}

// dataCounter sums a counter's growth over the storage nodes.
func dataCounter(before, after clusterCounters, name string) float64 {
	var d int64
	for node, s := range after.stats {
		if node != "meta" {
			d += s.Counter(name) - before.stats[node].Counter(name)
		}
	}
	return float64(d)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer runs the traced phase after the untraced base phase and sets
// every per-layer metric. Spans are recorded by the benchmark around its
// own calls; the program's lifecycle spans come from its trace rings,
// drained while the phase runs and joined to those calls by trace ID.
func (r *report) perLayer(e *env, base *phase, d time.Duration) error {
	wl := r.wl
	before := readCluster(e)
	dr := newDrainer()
	dr.drain(e.c, e.fs, width, false)
	stop, done := make(chan struct{}), make(chan struct{})
	go dr.run(e.c, e.fs, width, drainTick, stop, done)
	p := e.runPhase(d, r.seed+1, true)
	close(stop)
	<-done
	after := readCluster(e)
	r.count(p)

	var allOps, dataOps, metaOps int
	var userBytes int64
	for _, st := range []*clientStats{p.a, p.b} {
		for cls := class(0); cls < nClasses; cls++ {
			n := len(st.samples[cls])
			allOps += n
			if cls == clsMeta {
				metaOps += n
			} else {
				dataOps += n
			}
			userBytes += st.bytes[cls]
		}
	}

	// core: where active parts ran, and the runtime's own spans.
	a := p.a
	r.set("core.bounce_frac", ratio(float64(a.bounced), float64(a.parts)), "frac", "active parts run on the client after a bounce")
	r.set("core.interrupt_frac", ratio(float64(a.migrated), float64(a.parts)), "frac", "active parts interrupted and finished on the client")
	var queueWait, decision, estErr, transfer []float64
	var storageBusy, clientBusy, kernelBytes, kernelNS float64
	for ring, evs := range dr.events {
		for _, ev := range evs {
			switch {
			case ev.Phase == trace.PhaseQueueWait:
				queueWait = append(queueWait, float64(ev.Dur)/1e6)
			case ev.Phase == trace.PhaseDecision && ev.Dur > 0:
				decision = append(decision, float64(ev.Dur)/1e3)
			case ev.Phase == trace.PhaseTransfer:
				transfer = append(transfer, float64(ev.Dur)/1e6)
			case ev.Phase == trace.PhaseKernel:
				if ring == "client" {
					clientBusy += ev.Dur.Seconds()
				} else {
					storageBusy += ev.Dur.Seconds()
					if ev.Kind == trace.KindComplete && ev.Predicted > 0 {
						estErr = append(estErr, 100*math.Abs(float64(ev.Dur-ev.Predicted))/float64(ev.Predicted))
					}
				}
				if ev.Kind == trace.KindComplete {
					kernelBytes += float64(ev.Bytes)
					kernelNS += float64(ev.Dur)
				}
			}
		}
	}
	qw := sortedCopy(queueWait)
	r.set("core.queue_wait_ms.p50", percentile(qw, 50), "ms", "storage-side queue-wait spans")
	r.set("core.queue_wait_ms.p90", percentile(qw, 90), "ms", "storage-side queue-wait spans")
	r.set("core.decision_us.p50", median(decision), "us", "admission decision spans")
	r.set("core.est_error_pct.p50", median(estErr), "%", "kernel span, predicted vs actual")
	records := dr.decisionRecords()
	regret, agree, err := replayDecisions(records)
	if err != nil {
		return fmt.Errorf("replaying decisions: %w", err)
	}
	r.set("core.regret_frac", regret, "frac", fmt.Sprintf("replay of %d logged decisions: regret / total cost", len(records)))
	r.set("core.oracle_agree_frac", agree, "frac", "logged decisions that picked the oracle's side")
	r.set("core.solve_us.p50", probeSolve(records), "us", "MaxGain.Solve re-run on the logged queues")

	calls := a.calls
	sort.Slice(calls, func(i, j int) bool { return calls[i].Start < calls[j].Start })
	j := join(calls, dr.events, func() uint64 { return e.spanID.Add(1) })
	var self []float64
	for _, c := range calls {
		self = append(self, float64(selfNS(c.span, j.children[c.ID]))/1e6)
		r.spans = append(r.spans, c.span)
		r.spans = append(r.spans, j.children[c.ID]...)
	}
	r.spans = append(r.spans, p.a.spans...)
	r.spans = append(r.spans, p.b.spans...)
	r.set("core.client_self_ms.p50", median(self), "ms", "ReadExMany time no program span covers")

	// kernels
	streams := localStreams(e.data[wl.files[0].name], stripe, width)
	for _, op := range activeOps {
		mbps, err := probeKernel(op, e.params[op], streams)
		if err != nil {
			return fmt.Errorf("kernel probe %s: %w", op, err)
		}
		r.set("kernels."+op+"_mbps", mbps, "MB/s", "direct run over the dataset's local streams")
	}
	r.set("kernels.inrun_mbps", ratio(kernelBytes, kernelNS)*1e3, "MB/s", "bytes / kernel-execute span time")
	r.set("kernels.storage_busy_s", storageBusy, "s", "storage-side kernel spans, summed")
	r.set("kernels.client_busy_s", clientBusy, "s", "client-side kernel spans, summed")

	// ioqueue
	r.set("ioqueue.gate_wait_ms_per_op", ratio(float64(after.queueWait-before.queueWait)/1e6, float64(after.tenantOps-before.tenantOps)),
		"ms", "tenant queue wait / tenant ops, storage nodes")
	r.set("ioqueue.throttled", throttled(e.c, p.start, time.Now()), "count", "WDRR heads deferred for credit, all nodes")

	// pfs
	r.set("pfs.transfer_ms.p50", median(transfer), "ms", "client network-transfer spans")
	r.set("pfs.shipped_per_active_byte", ratio(float64(a.shipped), float64(a.analysed)), "ratio", "Result.BytesShipped / bytes analysed")
	rpcs := dataCounter(before, after, "data.read") + dataCounter(before, after, "data.write")
	r.set("pfs.chunk_rpcs_per_op", ratio(rpcs, float64(dataOps)), "count", "data-server read+write RPCs per data op")
	readUS, writeUS, err := probeStore(filepath.Join(filepath.Dir(e.dir), "store-probe"), chunkFor(wl.readSize), chunkFor(wl.writeSize))
	if err != nil {
		return fmt.Errorf("store probe: %w", err)
	}
	r.set("pfs.store_read_us.p50", readUS, "us", fmt.Sprintf("extent-store ReadAt of %d bytes", chunkFor(wl.readSize)))
	r.set("pfs.store_write_us.p50", writeUS, "us", fmt.Sprintf("extent-store WriteAt of %d bytes", chunkFor(wl.writeSize)))
	var stored, onDisk int64
	for _, f := range wl.files {
		stored += int64(f.size)
	}
	stored += int64(len(e.live) * wl.writeSize)
	for i := 0; i < width; i++ {
		onDisk += dataDirUsage(filepath.Join(e.dir, fmt.Sprintf("data-%d", i)))
	}
	r.set("pfs.space_per_user_byte", ratio(float64(onDisk), float64(stored)), "ratio", "allocated store bytes / logical bytes")
	r.set("pfs.journal_bytes_per_meta_op", ratio(float64(after.walBytes-before.walBytes), float64(metaOps)), "B", "meta.wal growth per create/stat/remove")

	// wire
	served := dataCounter(before, after, "data.bytes_read")
	copied := dataCounter(before, after, "wire.copied_bytes") + dataCounter(before, after, "data.bytes_copied")
	r.set("wire.copied_per_byte", ratio(copied, served), "ratio", "bytes staged through user space / bytes served")
	r.set("wire.sendfile_frac", ratio(dataCounter(before, after, "wire.sendfile_bytes"), served), "frac", "bytes served by sendfile")
	r.set("wire.writev_calls_per_mb", ratio(dataCounter(before, after, "wire.writev_calls"), served/1e6), "1/MB", "vectored frame writes per MB served")
	codec, err := probeCodec(codecMix(wl))
	if err != nil {
		return fmt.Errorf("codec probe: %w", err)
	}
	r.set("wire.codec_ns_per_msg", codec, "ns", "encode+decode of the workload's message mix")

	// transport
	rtt, err := probeRTT()
	if err != nil {
		return fmt.Errorf("rtt probe: %w", err)
	}
	r.set("transport.rtt_us.p50", rtt, "us", "one-byte round trip, TCP loopback")

	// process
	pb, pa := before.proc, after.proc
	r.set("process.cpu_ms_per_mb", ratio(float64(pa.cpu-pb.cpu)/1e6, float64(userBytes)/1e6), "ms/MB", "process CPU per user MB moved or analysed")
	r.set("go.alloc_bytes_per_op", ratio(float64(pa.alloc-pb.alloc), float64(allOps)), "B", "Go heap allocation per operation")
	r.set("go.gc_cpu_frac", ratio(pa.gcCPU-pb.gcCPU, pa.totalCPU-pb.totalCPU), "frac", "GC share of Go CPU time")
	r.set("host.steal_frac", ratio(float64(pa.steal-pb.steal), float64(pa.hostTotal-pb.hostTotal)), "frac", "host CPU stolen by the hypervisor")

	// trace
	coverage := 1.0
	if j.calls > 0 {
		coverage = float64(j.covered) / float64(j.calls)
	}
	r.set("trace.coverage", coverage, "frac", fmt.Sprintf("%d of %d active calls with every server phase found", j.covered, j.calls))
	baseRate := summarize(base, base.owner(wl, wl.a), wl.a, 50).opsPerS
	tracedRate := summarize(p, p.owner(wl, wl.a), wl.a, 50).opsPerS
	r.set("trace.overhead_frac", 1-ratio(tracedRate, baseRate), "frac",
		fmt.Sprintf("client A rate: %.2f/s untraced, %.2f/s traced", baseRate, tracedRate))

	// The layer table: every instant of every ReadExMany, charged to one
	// layer or to the client's residual.
	parts := breakdown(calls, j.children)
	var wall int64
	for _, c := range calls {
		wall += c.dur()
	}
	if len(calls) > 0 {
		r.line("ReadExMany wall time by layer (%d calls, %.1f ms each):", len(calls), float64(wall)/1e6/float64(len(calls)))
	}
	var sum int64
	for i, ns := range parts {
		name := "breakdown.client_self_frac"
		if i < len(breakdownLayers) {
			name = breakdownLayers[i].metric
		}
		sum += ns
		r.set(name, ratio(float64(ns), float64(wall)), "frac", "share of ReadExMany wall time")
		if len(calls) > 0 {
			r.line("  %-28s %9.3f ms/call %6.1f%%", name, float64(ns)/1e6/float64(len(calls)), 100*ratio(float64(ns), float64(wall)))
		}
	}
	if len(calls) > 0 {
		r.line("  %-28s %9.3f ms/call (wall %.3f)", "sum", float64(sum)/1e6/float64(len(calls)), float64(wall)/1e6/float64(len(calls)))
	}
	r.line("rings: %d trace events drained, %d lost to overwrite; %d decision records, %d lost",
		countEvents(dr.events), dr.lostEv, len(records), dr.lostRecords())
	return nil
}

func countEvents(m map[string][]dosas.TraceEvent) int {
	n := 0
	for _, evs := range m {
		n += len(evs)
	}
	return n
}

// throttled integrates every node's qos.throttled rate series over
// [from, to] into a count of deferred heads.
func throttled(c *dosas.Cluster, from, to time.Time) float64 {
	var total float64
	for _, series := range c.Series(to.Sub(from) + time.Second) {
		for _, s := range series {
			if s.Name != "qos.throttled" {
				continue
			}
			for i := 1; i < len(s.Points); i++ {
				t := s.Points[i].UnixNano
				if t < from.UnixNano() || t > to.UnixNano() {
					continue
				}
				dt := float64(t-s.Points[i-1].UnixNano) / 1e9
				total += s.Points[i].Value * dt
			}
		}
	}
	return total
}
