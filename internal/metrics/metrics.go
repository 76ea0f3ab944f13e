// Package metrics provides the lightweight instrumentation DOSAS servers
// use to account for their own load: atomic counters and gauges, windowed
// rate meters, and log-bucketed latency histograms. The Contention
// Estimator reads these instead of OS counters, which keeps scheduling
// decisions deterministic and testable.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (n must be non-negative).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value that can move both ways.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatGauge is an atomic float64 gauge (stored as bits).
type FloatGauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add moves the gauge by delta using a CAS loop.
func (g *FloatGauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		cur := math.Float64frombits(old)
		if g.bits.CompareAndSwap(old, math.Float64bits(cur+delta)) {
			return
		}
	}
}

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Meter measures an event rate (e.g. bytes/second) over a sliding window
// of fixed-width slots. It is cheap enough for the per-read fast path.
type Meter struct {
	mu        sync.Mutex
	slotWidth time.Duration
	slots     []float64
	head      int       // slot index for 'headTime'
	headTime  time.Time // start of the head slot
	now       func() time.Time
}

// NewMeter returns a meter averaging over window, divided into 16 slots.
func NewMeter(window time.Duration) *Meter {
	if window <= 0 {
		window = time.Second
	}
	slotWidth := window / 16
	if slotWidth <= 0 {
		// Windows shorter than 16 ns would make slotWidth zero and
		// advanceLocked divide by it; clamp to the finest resolution.
		slotWidth = 1
	}
	return &Meter{
		slotWidth: slotWidth,
		slots:     make([]float64, 16),
		now:       time.Now,
	}
}

// Mark records n units of the measured quantity at the current time.
func (m *Meter) Mark(n float64) {
	m.mu.Lock()
	m.advanceLocked(m.now())
	m.slots[m.head] += n
	m.mu.Unlock()
}

// Rate returns the average rate in units/second over the window.
func (m *Meter) Rate() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.advanceLocked(m.now())
	var sum float64
	for _, s := range m.slots {
		sum += s
	}
	window := m.slotWidth * time.Duration(len(m.slots))
	return sum / window.Seconds()
}

// advanceLocked rotates the slot ring forward to cover 'now', zeroing any
// slots that have fallen out of the window.
func (m *Meter) advanceLocked(now time.Time) {
	if m.headTime.IsZero() {
		m.headTime = now
		return
	}
	steps := int(now.Sub(m.headTime) / m.slotWidth)
	if steps <= 0 {
		return
	}
	if steps >= len(m.slots) {
		for i := range m.slots {
			m.slots[i] = 0
		}
		m.head = 0
		m.headTime = now
		return
	}
	for i := 0; i < steps; i++ {
		m.head = (m.head + 1) % len(m.slots)
		m.slots[m.head] = 0
	}
	m.headTime = m.headTime.Add(time.Duration(steps) * m.slotWidth)
}

// Histogram accumulates observations into exponentially sized buckets
// (powers of two in microseconds when used for latencies). It keeps exact
// count, sum, min and max alongside the buckets.
type Histogram struct {
	mu      sync.Mutex
	buckets [64]int64
	count   int64
	sum     float64
	min     float64
	max     float64
}

// Observe records v (must be non-negative; negative values clamp to 0).
func (h *Histogram) Observe(v float64) {
	if v < 0 {
		v = 0
	}
	b := bucketFor(v)
	h.mu.Lock()
	h.buckets[b]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

func bucketFor(v float64) int {
	if v < 1 {
		return 0
	}
	b := int(math.Log2(v)) + 1
	if b >= 64 {
		b = 63
	}
	return b
}

// HistogramSnapshot is a consistent copy of a Histogram's state.
type HistogramSnapshot struct {
	Count    int64
	Sum      float64
	Min, Max float64
	Buckets  [64]int64
}

// Snapshot returns a copy of the histogram's state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max, Buckets: h.buckets}
}

// Mean returns the arithmetic mean of observed values, or 0 when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile returns an estimate of the q-quantile (0 ≤ q ≤ 1) using the
// bucket upper bounds. Exact for min (q=0) and max (q=1).
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min
	}
	if q >= 1 {
		return s.Max
	}
	target := int64(q * float64(s.Count))
	var cum int64
	for i, c := range s.Buckets {
		cum += c
		if cum > target {
			if i == 0 {
				return 1
			}
			return math.Exp2(float64(i)) // upper bound of bucket i
		}
	}
	return s.Max
}

// Registry is a named collection of metrics, used by servers to expose a
// status dump.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	meters map[string]*Meter
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		meters: make(map[string]*Meter),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counts[name]
	if !ok {
		c = new(Counter)
		r.counts[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = new(Gauge)
		r.gauges[name] = g
	}
	return g
}

// Meter returns the named meter (1 s window), creating it on first use.
func (r *Registry) Meter(name string) *Meter {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.meters[name]
	if !ok {
		m = NewMeter(time.Second)
		r.meters[name] = m
	}
	return m
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = new(Histogram)
		r.hists[name] = h
	}
	return h
}

// HistogramStats is the JSON-friendly digest of one histogram, as
// exported in Snapshot.
type HistogramStats struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Snapshot is a consistent, JSON-encodable copy of a registry's state —
// the structured export behind the "stats" inspect kind and dosasctl
// stats. Its JSON encoding is deterministic: encoding/json emits map
// keys in sorted order, so two snapshots of the same state encode
// byte-identically and `dosasctl stats -json` output is diffable across
// runs (locked in by TestSnapshotJSONDeterministic).
type Snapshot struct {
	Counters   map[string]int64          `json:"counters,omitempty"`
	Gauges     map[string]int64          `json:"gauges,omitempty"`
	Meters     map[string]float64        `json:"meters,omitempty"`
	Histograms map[string]HistogramStats `json:"histograms,omitempty"`
}

// Counter reads a counter from the snapshot (0 when absent), sparing
// callers the nil-map check.
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Snapshot captures every registered metric's current value.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{}
	if len(r.counts) > 0 {
		s.Counters = make(map[string]int64, len(r.counts))
		for n, c := range r.counts {
			s.Counters[n] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for n, g := range r.gauges {
			s.Gauges[n] = g.Value()
		}
	}
	if len(r.meters) > 0 {
		s.Meters = make(map[string]float64, len(r.meters))
		for n, m := range r.meters {
			s.Meters[n] = m.Rate()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramStats, len(r.hists))
		for n, h := range r.hists {
			hs := h.Snapshot()
			s.Histograms[n] = HistogramStats{
				Count: hs.Count,
				Mean:  hs.Mean(),
				Min:   hs.Min,
				Max:   hs.Max,
				P50:   hs.Quantile(0.5),
				P90:   hs.Quantile(0.9),
				P99:   hs.Quantile(0.99),
			}
		}
	}
	return s
}

// Dump renders all metrics as "name value" lines in sorted order.
func (r *Registry) Dump() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var lines []string
	for n, c := range r.counts {
		lines = append(lines, fmt.Sprintf("counter %s %d", n, c.Value()))
	}
	for n, g := range r.gauges {
		lines = append(lines, fmt.Sprintf("gauge %s %d", n, g.Value()))
	}
	for n, m := range r.meters {
		lines = append(lines, fmt.Sprintf("meter %s %.3f/s", n, m.Rate()))
	}
	for n, h := range r.hists {
		s := h.Snapshot()
		lines = append(lines, fmt.Sprintf("hist %s count=%d mean=%.3f p99=%.3f", n, s.Count, s.Mean(), s.Quantile(0.99)))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
