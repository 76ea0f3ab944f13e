// Command perfbench is the DOSAS benchmark. It boots a four-node TCP
// cluster in-process with the daemon defaults, loads a seeded dataset,
// drives one of the named closed-loop workloads with two clients, checks
// every output the program returns, and prints each metric by name and
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones. With -trace 1 the
// run measures the workload untraced for half the time and traced for the
// other half, and reports the per-layer metrics, including how much the
// tracing itself cost.
//
// Run it through run.sh, which builds it from the surrounding checkout:
//
//	bash perfbench/run.sh --workload active-contention --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

const (
	setupReps = 5               // cluster boots before the run, and one fewer after it
	warmup    = 1 * time.Second // untimed closed-loop load before measuring
	drainTick = 100 * time.Millisecond
	rssTick   = 20 * time.Millisecond
)

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 20, "length of each measured phase, in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	workdir := flag.String("workdir", ".bench_build/perfbench", "directory for the cluster's data and the span dump")
	flag.Parse()
	wl := workloads[*name]
	if wl == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	runDir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(runDir)
	r := &report{wl: wl, seed: *seed, seconds: *seconds, traced: *traced == 1, fsType: fsType(runDir)}
	if err := r.measure(runDir, time.Duration(*seconds)*time.Second); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if r.traced {
		r.spanFile = filepath.Join(*workdir, fmt.Sprintf("%s-seed%d.spans.json", wl.name, *seed))
		if err := writeSpans(r.spanFile, r.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
	}
	r.print(os.Stdout)
	return 0
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	note  string
}

// report accumulates one run's results.
type report struct {
	wl        *workload
	seed      uint64
	seconds   int
	traced    bool
	fsType    string
	attempted int
	failed    int
	notes     []string
	order     []string
	metrics   map[string]metric
	table     []string // human-readable lines printed before the result
	spans     []span
	spanFile  string
}

func (r *report) set(name string, v float64, unit, note string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit, note: note}
}

func (r *report) count(p *phase) {
	for _, st := range []*clientStats{p.a, p.b} {
		r.attempted += st.attempts
		r.failed += st.failed
		r.notes = append(r.notes, st.notes...)
	}
}

// measure boots the cluster setupReps times, warms it, runs the measured
// phase or phases, and checks the final state.
func (r *report) measure(runDir string, d time.Duration) error {
	e, err := newEnv(r.wl, r.seed)
	if err != nil {
		return err
	}
	defer e.close()
	var setups []float64
	setup := func() error {
		e.close()
		start := time.Now()
		if err := e.boot(filepath.Join(runDir, fmt.Sprintf("cluster-%d", len(setups)))); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		return nil
	}
	for i := 0; i < setupReps; i++ {
		if err := setup(); err != nil {
			return err
		}
	}
	r.count(e.runPhase(warmup, r.seed, false))
	if !r.traced {
		// Start the measured phase from a collected heap, and take the
		// peak resident set over the phase alone: the torn-down set-up
		// clusters' garbage is not the workload's footprint.
		runtime.GC()
		debug.FreeOSMemory()
		stop, peak := make(chan struct{}), make(chan float64)
		go watchRSS(rssTick, stop, peak)
		p := e.runPhase(d, r.seed, false)
		close(stop)
		r.count(p)
		r.endToEnd(p, <-peak)
	} else {
		// The measured time is split between an untraced and a traced
		// half, so a traced run takes as long as an untraced one and the
		// two halves give the tracing overhead.
		base := e.runPhase(d/2, r.seed, false)
		r.count(base)
		if err := r.perLayer(e, base, d/2); err != nil {
			return err
		}
	}
	checks, fails := e.verify()
	r.attempted += checks
	r.failed += len(fails)
	r.notes = append(r.notes, fails...)
	r.line("%-22s %12.6f   (%d of %d operations and checks)", "failed_frac", float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	if !r.traced {
		// Boot again after the run, so that setup_s samples the host at
		// both ends of the measured phase, not in one brief moment.
		for i := 1; i < setupReps; i++ {
			if err := setup(); err != nil {
				return err
			}
		}
		r.set("setup_s", median(setups), "s", fmt.Sprintf("median of %d boots + dataset loads, before and after the run", len(setups)))
		r.line("%-22s %12.3f s   (each: %s)", "setup_s", median(setups), strings.Trim(fmt.Sprintf("%.3f", setups), "[]"))
	}
	return nil
}

// windows is how many equal slices the measured phase is cut into.
// Rates and medians are taken per slice and the median slice is
// reported, so a host stall in one slice does not move the figure.
const windows = 10

// classStats are the summary figures of one class of operation.
type classStats struct {
	n         int
	opsPerS   float64
	mbps      float64
	p50, tail float64 // ms
	tailP     float64
	beyond    int
	tails     map[float64]float64 // candidate tails with minBeyond samples beyond, for the table
}

// summarize computes one class's figures over a phase: the rate and the
// median latency per window (median over windows), and the tail over
// the whole phase. When the class's samples come from several kernels
// (the active client alternates two), each latency percentile is the
// mean of the per-kernel percentiles, so a two-mode mix does not put the
// median on the gap between the modes.
func summarize(p *phase, st *clientStats, cls class, tailP float64) classStats {
	ss := st.samples[cls]
	cs := classStats{n: len(ss), tailP: tailP, tails: map[float64]float64{}}
	if cs.n == 0 {
		return cs
	}
	kinds := 1
	if cls == clsActive {
		kinds = len(activeOps)
	}
	byKind := func(ss []sample) [][]float64 {
		out := make([][]float64, kinds)
		for _, s := range ss {
			out[s.kind()] = append(out[s.kind()], float64(s.lat())/1e6)
		}
		for _, k := range out {
			sort.Float64s(k)
		}
		return out
	}
	all := byKind(ss)
	cs.beyond = math.MaxInt
	for _, k := range all {
		cs.tail += percentile(k, tailP) / float64(kinds)
		cs.beyond = min(cs.beyond, beyond(len(k), tailP))
	}
	for _, c := range tailCandidates {
		if c <= tailPercentile(cs.n/kinds) {
			for _, k := range all {
				cs.tails[c] += percentile(k, c) / float64(kinds)
			}
		}
	}
	w := p.dur / windows
	var rates, p50s []float64
	lo := 0
	for i := 1; i <= windows; i++ {
		hi := lo
		for hi < len(ss) && ss[hi].end() < time.Duration(i)*w {
			hi++
		}
		rates = append(rates, float64(hi-lo)/w.Seconds())
		p50, ok := 0.0, true
		for _, k := range byKind(ss[lo:hi]) {
			if len(k) == 0 {
				ok = false
				break
			}
			p50 += median(k) / float64(kinds)
		}
		if ok {
			p50s = append(p50s, p50)
		}
		lo = hi
	}
	cs.opsPerS = median(rates)
	cs.mbps = cs.opsPerS * float64(st.bytes[cls]) / float64(cs.n) / 1e6
	cs.p50 = median(p50s)
	return cs
}

// owner returns the client that issues a class of operation: B for its
// own class, A for the rest (small-ops writes come from A's create
// cycle).
func (p *phase) owner(wl *workload, cls class) *clientStats {
	if wl.b == cls {
		return p.b
	}
	return p.a
}

var metricNames = map[class][3]string{
	clsActive: {"active_mbps", "active_p50_ms", "active_tail_ms"},
	clsRead:   {"read_mbps", "read_p50_ms", "read_tail_ms"},
	clsWrite:  {"write_mbps", "write_p50_ms", "write_tail_ms"},
	clsMeta:   {"meta_ops_per_s", "meta_p50_ms", "meta_tail_ms"},
}

// endToEnd sets the gated end-to-end metrics and prints the per-class
// table with the per-operation metric names (active_mbps, read_p50_ms, …).
func (r *report) endToEnd(p *phase, rss float64) {
	for _, role := range []struct {
		prefix string
		cls    class
	}{{"a", r.wl.a}, {"b", r.wl.b}} {
		cs := summarize(p, p.owner(r.wl, role.cls), role.cls, r.wl.tail[role.cls])
		r.set(role.prefix+"_ops_per_s", cs.opsPerS, "1/s", classNames[role.cls]+" ops completed per second")
		r.set(role.prefix+"_p50_ms", cs.p50, "ms", classNames[role.cls]+" latency median")
		r.set(role.prefix+"_tail_ms", cs.tail, "ms", fmt.Sprintf("%s latency p%g, %d samples, %d beyond", classNames[role.cls], cs.tailP, cs.n, cs.beyond))
		if cs.beyond < minBeyond {
			r.notes = append(r.notes, fmt.Sprintf("warning: %s p%g has only %d samples beyond it", classNames[role.cls], cs.tailP, cs.beyond))
		}
	}
	r.set("rss_peak_mb", rss, "MB", fmt.Sprintf("peak resident set over the phase, MiB, sampled every %v", rssTick))

	for cls := class(0); cls < nClasses; cls++ {
		cs := summarize(p, p.owner(r.wl, cls), cls, r.wl.tail[cls])
		if cs.n == 0 {
			continue
		}
		names := metricNames[cls]
		if cls == clsMeta {
			r.line("%-22s %12.2f 1/s", names[0], cs.opsPerS)
		} else {
			r.line("%-22s %12.2f MB/s", names[0], cs.mbps)
		}
		r.line("%-22s %12.3f ms", names[1], cs.p50)
		r.line("%-22s %12.3f ms   (p%g of %d samples, %d beyond)", names[2], cs.tail, cs.tailP, cs.n, cs.beyond)
		var cands []string
		for _, c := range tailCandidates {
			if v, ok := cs.tails[c]; ok {
				cands = append(cands, fmt.Sprintf("p%g=%.4g", c, v))
			}
		}
		r.line("%-22s candidates: %s", names[2], strings.Join(cands, " "))
	}
	r.line("%-22s %12.1f MB", "rss_peak_mb", rss)
}

func (r *report) line(format string, args ...any) {
	r.table = append(r.table, fmt.Sprintf(format, args...))
}

// print writes the human-readable report and, last, the JSON result.
func (r *report) print(w *os.File) {
	mode := "end-to-end"
	if r.traced {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d metrics=%s\n", r.wl.name, r.seed, r.seconds, mode)
	fmt.Fprintf(w, "cluster: 4 data servers over TCP loopback, daemon defaults; data dir on %s; meta journal fsync per mutation, store writes unsynced\n", r.fsType)
	for _, l := range r.table {
		fmt.Fprintln(w, "  "+l)
	}
	fmt.Fprintln(w, "metrics:")
	for _, n := range r.order {
		m := r.metrics[n]
		fmt.Fprintf(w, "  %-32s %14.6g %-6s %s\n", n, m.Value, m.Unit, m.note)
	}
	if r.spanFile != "" {
		fmt.Fprintf(w, "spans: %d written to %s\n", len(r.spans), r.spanFile)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "note:", n)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, r.metrics}
	b, _ := json.Marshal(out) // plain numbers and strings: cannot fail
	fmt.Fprintln(w, string(b))
}
