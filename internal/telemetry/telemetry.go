// Package telemetry turns the instantaneous signals the other layers
// already expose (metrics counters and gauges, queue occupancy, estimator
// state) into continuous per-node histories. Every DOSAS node — the
// metadata server, each storage node, and the client file system — runs a
// Sampler that ticks on a fixed interval and appends one point per
// registered probe into a fixed-capacity ring, so operators can see how
// contention, bounce rate, and estimator error evolve over a run instead
// of a single point-in-time snapshot. The package also defines the
// health-probe report types served over the wire and the slow-request
// flight recorder the client uses to journal diagnostic bundles.
package telemetry

import (
	"encoding/json"
	"sort"
	"sync"
	"time"
)

// Defaults for Sampler configuration.
const (
	// DefaultInterval is the sampler tick. At 10 Hz a probe set of ~8
	// series costs well under 0.1% of a core.
	DefaultInterval = 100 * time.Millisecond
	// DefaultCapacity retains one minute of history at DefaultInterval.
	DefaultCapacity = 600
)

// Point is one sample: the probe's value at a wall-clock instant. Mono
// is the monotonic offset (nanoseconds since the sampler started) of the
// same instant: wall time is what aligns archived windows across nodes,
// mono is what keeps one node's points ordered across a clock step. It
// is omitted from JSON when zero so pre-existing payloads round-trip.
type Point struct {
	UnixNano int64   `json:"t"`
	Value    float64 `json:"v"`
	Mono     int64   `json:"m,omitempty"`
}

// Sample is one named value from a tick, the unit handed to OnSamples
// listeners (the telemetry archive appends these to disk).
type Sample struct {
	Name  string
	Value float64
}

// Series is the retained history of one metric, oldest point first. It is
// the JSON payload unit of the "series" inspect kind.
type Series struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// Last returns the most recent point (zero when the series is empty).
func (s Series) Last() Point {
	if len(s.Points) == 0 {
		return Point{}
	}
	return s.Points[len(s.Points)-1]
}

// Max returns the largest value in the series (0 when empty).
func (s Series) Max() float64 {
	var max float64
	for i, p := range s.Points {
		if i == 0 || p.Value > max {
			max = p.Value
		}
	}
	return max
}

// EncodeSeries marshals series to the JSON array format used on the wire.
func EncodeSeries(series []Series) ([]byte, error) {
	if series == nil {
		series = []Series{}
	}
	return json.Marshal(series)
}

// DecodeSeries parses the JSON array format produced by EncodeSeries. An
// empty payload decodes to no series.
func DecodeSeries(b []byte) ([]Series, error) {
	if len(b) == 0 {
		return nil, nil
	}
	var series []Series
	if err := json.Unmarshal(b, &series); err != nil {
		return nil, err
	}
	return series, nil
}

// Downsample reduces points to one mean point per step bucket, stamped
// at the bucket start. Buckets are aligned to the Unix epoch, so two
// nodes downsampling the same window produce directly comparable
// grids. step <= 0 returns points unchanged.
func Downsample(points []Point, stepNano int64) []Point {
	if stepNano <= 0 || len(points) == 0 {
		return points
	}
	align := func(t int64) int64 {
		b := t - t%stepNano
		if t < 0 && t%stepNano != 0 {
			b -= stepNano
		}
		return b
	}
	var out []Point
	var bucket int64
	var sum float64
	var n int
	flush := func() {
		if n > 0 {
			out = append(out, Point{UnixNano: bucket, Value: sum / float64(n)})
		}
		sum, n = 0, 0
	}
	for _, p := range points {
		b := align(p.UnixNano)
		if n > 0 && b != bucket {
			flush()
		}
		bucket = b
		sum += p.Value
		n++
	}
	flush()
	return out
}

// Probe reads one instantaneous value. Probes run on the sampler
// goroutine and must be cheap and non-blocking (atomic loads, short
// mutexed snapshots).
type Probe func() float64

// Config parameterises a Sampler.
type Config struct {
	// Interval between ticks; 0 takes DefaultInterval.
	Interval time.Duration
	// Capacity is the per-series ring size; 0 takes DefaultCapacity.
	Capacity int
	// Now overrides the clock, for tests.
	Now func() time.Time
}

// Sampler records registered probes into per-metric rings on a fixed
// tick. A nil *Sampler is valid and records nothing, so call sites need
// no nil checks. Start launches the tick loop; tests drive Tick directly.
type Sampler struct {
	interval time.Duration
	capacity int
	now      func() time.Time

	epoch time.Time

	mu              sync.Mutex
	probes          []probeEntry
	rings           map[string]*ring
	ticks           uint64
	dropped         uint64
	listeners       []func()
	sampleListeners []func(wallNano, monoNano int64, samples []Sample)

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	wg        sync.WaitGroup
}

type probeEntry struct {
	name  string
	probe Probe
}

// ring is a fixed-capacity point buffer.
type ring struct {
	pts  []Point
	next int
	full bool
}

func (r *ring) add(p Point) {
	r.pts[r.next] = p
	r.next++
	if r.next == len(r.pts) {
		r.next = 0
		r.full = true
	}
}

// snapshot returns retained points oldest-first, filtered to t >= since.
func (r *ring) snapshot(since int64) []Point {
	var out []Point
	emit := func(p Point) {
		if p.UnixNano >= since {
			out = append(out, p)
		}
	}
	if r.full {
		for _, p := range r.pts[r.next:] {
			emit(p)
		}
	}
	for _, p := range r.pts[:r.next] {
		emit(p)
	}
	return out
}

// NewSampler returns a sampler; Register probes, then Start it.
func NewSampler(cfg Config) *Sampler {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Sampler{
		interval: cfg.Interval,
		capacity: cfg.Capacity,
		now:      cfg.Now,
		epoch:    cfg.Now(),
		rings:    make(map[string]*ring),
		stop:     make(chan struct{}),
	}
}

// Interval returns the sampler's tick interval (0 on a nil sampler).
func (s *Sampler) Interval() time.Duration {
	if s == nil {
		return 0
	}
	return s.interval
}

// Register adds a named probe. Registering an existing name replaces its
// probe but keeps the recorded history. Safe before or after Start.
func (s *Sampler) Register(name string, p Probe) {
	if s == nil || p == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.probes {
		if s.probes[i].name == name {
			s.probes[i].probe = p
			return
		}
	}
	s.probes = append(s.probes, probeEntry{name: name, probe: p})
	if _, ok := s.rings[name]; !ok {
		s.rings[name] = &ring{pts: make([]Point, s.capacity)}
	}
}

// Start launches the tick loop. Safe on nil and idempotent.
func (s *Sampler) Start() {
	if s == nil {
		return
	}
	s.startOnce.Do(func() {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			// Schedule ticks on absolute deadlines (start + n*interval)
			// rather than a free-running Ticker: a Tick that runs long
			// shortens the following sleep instead of pushing every later
			// tick back, so archived sample times stay on the same grid
			// across nodes under load. When a tick overruns by more than a
			// whole interval, skip forward on the grid rather than firing
			// a catch-up burst.
			next := time.Now().Add(s.interval)
			t := time.NewTimer(s.interval)
			defer t.Stop()
			for {
				select {
				case <-s.stop:
					return
				case <-t.C:
					s.Tick()
					next = next.Add(s.interval)
					d := time.Until(next)
					if d <= 0 {
						behind := (-d)/s.interval + 1
						next = next.Add(behind * s.interval)
						if d = time.Until(next); d <= 0 {
							d = time.Nanosecond
						}
					}
					t.Reset(d)
				}
			}
		}()
	})
}

// Close stops the tick loop. Safe on nil, idempotent, and fine to call on
// a sampler that was never started.
func (s *Sampler) Close() {
	if s == nil {
		return
	}
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
}

// Tick samples every registered probe once. The tick loop calls it on
// the interval; tests call it directly for determinism.
func (s *Sampler) Tick() {
	if s == nil {
		return
	}
	s.mu.Lock()
	probes := make([]probeEntry, len(s.probes))
	copy(probes, s.probes)
	s.mu.Unlock()
	// Probes run outside the sampler lock: a probe that reads a metrics
	// registry must not be able to deadlock against a concurrent Snapshot.
	wall := s.now()
	now := wall.UnixNano()
	mono := wall.Sub(s.epoch).Nanoseconds()
	vals := make([]float64, len(probes))
	for i, pe := range probes {
		vals[i] = pe.probe()
	}
	s.mu.Lock()
	s.ticks++
	for i, pe := range probes {
		if r, ok := s.rings[pe.name]; ok {
			if r.full {
				s.dropped++
			}
			r.add(Point{UnixNano: now, Value: vals[i], Mono: mono})
		}
	}
	listeners := s.listeners
	sampleListeners := s.sampleListeners
	s.mu.Unlock()
	// Listeners run after the tick's points land, outside the lock for
	// the same reason probes do: the SLO engine's evaluation reads the
	// rings back through Get and must not deadlock.
	if len(sampleListeners) > 0 {
		samples := make([]Sample, len(probes))
		for i, pe := range probes {
			samples[i] = Sample{Name: pe.name, Value: vals[i]}
		}
		for _, f := range sampleListeners {
			f(now, mono, samples)
		}
	}
	for _, f := range listeners {
		f()
	}
}

// OnTick registers f to run at the end of every Tick, after the tick's
// samples have been recorded. The SLO engine hooks rule evaluation here
// so alerts are judged against the freshest window. Listeners must not
// block; they run on the sampler goroutine.
func (s *Sampler) OnTick(f func()) {
	if s == nil || f == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Copy-on-write so Tick can release the lock before invoking.
	ls := make([]func(), len(s.listeners), len(s.listeners)+1)
	copy(ls, s.listeners)
	s.listeners = append(ls, f)
}

// OnSamples registers f to receive every tick's materialized samples —
// the tick's wall and monotonic stamps plus one (name, value) pair per
// probe. The telemetry archive hooks its appender here. Like OnTick
// listeners, f runs on the sampler goroutine and must not block.
func (s *Sampler) OnSamples(f func(wallNano, monoNano int64, samples []Sample)) {
	if s == nil || f == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ls := make([]func(wallNano, monoNano int64, samples []Sample),
		len(s.sampleListeners), len(s.sampleListeners)+1)
	copy(ls, s.sampleListeners)
	s.sampleListeners = append(ls, f)
}

// Dropped reports how many samples the rings have overwritten since the
// sampler was created — non-zero means fetched series are a suffix of
// the node's true history, mirroring the trace ring's dropped counter.
func (s *Sampler) Dropped() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Ticks reports how many times the sampler has fired.
func (s *Sampler) Ticks() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ticks
}

// Snapshot returns every series, sorted by name, restricted to points
// within the trailing window (window <= 0 returns everything retained).
func (s *Sampler) Snapshot(window time.Duration) []Series {
	if s == nil {
		return nil
	}
	since := int64(0)
	if window > 0 {
		since = s.now().Add(-window).UnixNano()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Series, 0, len(s.rings))
	for name, r := range s.rings {
		out = append(out, Series{Name: name, Points: r.snapshot(since)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Get returns one named series within the trailing window.
func (s *Sampler) Get(name string, window time.Duration) (Series, bool) {
	if s == nil {
		return Series{}, false
	}
	since := int64(0)
	if window > 0 {
		since = s.now().Add(-window).UnixNano()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.rings[name]
	if !ok {
		return Series{}, false
	}
	return Series{Name: name, Points: r.snapshot(since)}, true
}

// WindowMax returns the largest value of a named series over the trailing
// window — the readiness checks use it so a saturation spike between two
// probes is still visible to the next health probe.
func (s *Sampler) WindowMax(name string, window time.Duration) (float64, bool) {
	ser, ok := s.Get(name, window)
	if !ok || len(ser.Points) == 0 {
		return 0, false
	}
	return ser.Max(), true
}

// DeltaProbe wraps a cumulative reading (a counter value) into a probe
// reporting the increase since the previous tick, clamped at zero so a
// reset counter yields 0 rather than a negative spike.
func DeltaProbe(f func() float64) Probe {
	var prev float64
	var primed bool
	return func() float64 {
		cur := f()
		if !primed {
			primed = true
			prev = cur
			return 0
		}
		d := cur - prev
		prev = cur
		if d < 0 {
			return 0
		}
		return d
	}
}

// RateProbe is DeltaProbe scaled to units per second at the given tick
// interval — how "bytes moved" counters become throughput series.
func RateProbe(f func() float64, interval time.Duration) Probe {
	if interval <= 0 {
		interval = DefaultInterval
	}
	delta := DeltaProbe(f)
	per := interval.Seconds()
	return func() float64 { return delta() / per }
}

// RatioProbe reports num()/den(), 0 while den is zero — cumulative
// fractions like bounced/arrivals, which rise under contention and hold
// steady when idle (a windowed ratio would collapse to 0 between bursts).
func RatioProbe(num, den func() float64) Probe {
	return func() float64 {
		d := den()
		if d <= 0 {
			return 0
		}
		return num() / d
	}
}
