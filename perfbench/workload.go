package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dosas"
)

// class is the kind of operation a sample measures.
type class int

const (
	clsActive class = iota // ReadExMany
	clsRead                // plain ReadAt
	clsWrite               // plain WriteAt
	clsMeta                // create, stat or remove
	nClasses
)

var classNames = [nClasses]string{"active", "read", "write", "meta"}

const (
	width       = 4        // storage nodes, and the stripe width of every data file
	stripe      = 64 << 10 // the cluster's default stripe size
	loadChunk   = 4 << 20  // dataset load write size
	gaussWidth  = 1024     // gaussian2d image row width; divides the stripe
	writePool   = 8        // distinct seeded buffers a writer cycles through
	liveSmall   = 8        // small-ops files kept before the oldest is removed
	smallPrefix = "small/tmp-"
)

// fileSpec is one dataset file: its name, size and generator stream.
type fileSpec struct {
	name   string
	size   int
	stream uint64
}

// workload is one closed-loop traffic mix: two clients, A and B, each
// issuing its next operation only when the previous one returned.
type workload struct {
	name string
	// a and b are the classes of the two clients' headline operations;
	// the end-to-end a_* and b_* metrics are computed over them.
	a, b class
	// tail is the percentile reported as each class's tail. It is fixed
	// per workload so every run reports the same statistic; each was
	// chosen as the highest that keeps at least minBeyond samples above
	// it in a run and repeats within a tenth across seeds (small-ops is
	// not gated, and keeps p99).
	tail  map[class]float64
	files []fileSpec
	// readSize and writeSize are the plain-I/O operation sizes, used to
	// pick the chunk sizes the per-layer store probes replay.
	readSize, writeSize int
	// writeFile is the dataset file writeStep overwrites, if any.
	writeFile    string
	stepA, stepB func(e *env, r *rand.Rand, st *clientStats)
}

var activeOps = []string{"sum8", "gaussian2d"}

var workloads = map[string]*workload{
	"active-contention": {
		name: "active-contention",
		a:    clsActive, b: clsRead,
		tail:      map[class]float64{clsActive: 90, clsRead: 99},
		files:     ensemble(4, 4<<20),
		readSize:  1 << 20,
		writeSize: 1 << 20,
		stepA:     activeStep,
		stepB:     readStep("ens/", 1<<20),
	},
	"bulk-io": {
		name: "bulk-io",
		a:    clsRead, b: clsWrite,
		tail: map[class]float64{clsRead: 90, clsWrite: 95},
		files: []fileSpec{
			{name: "bulk/read", size: 64 << 20, stream: 10},
			{name: "bulk/write", size: 32 << 20, stream: 11},
		},
		readSize:  8 << 20,
		writeSize: 1 << 20,
		writeFile: "bulk/write",
		stepA:     readStep("bulk/read", 8<<20),
		stepB:     writeStep(1 << 20),
	},
	"small-ops": {
		name: "small-ops",
		a:    clsMeta, b: clsRead,
		tail:      map[class]float64{clsMeta: 99, clsRead: 99, clsWrite: 99},
		files:     []fileSpec{{name: "small/read", size: 16 << 20, stream: 20}},
		readSize:  4 << 10,
		writeSize: 4 << 10,
		stepA:     metaStep,
		stepB:     readStep("small/read", 4<<10),
	},
}

func ensemble(n, size int) []fileSpec {
	out := make([]fileSpec, n)
	for i := range out {
		out[i] = fileSpec{name: fmt.Sprintf("ens/member-%d", i), size: size, stream: uint64(i + 1)}
	}
	return out
}

// env is one booted cluster with its dataset loaded, plus everything the
// clients need to check what the program returns.
type env struct {
	wl       *workload
	c        *dosas.Cluster
	fs       *dosas.FS
	dir      string
	data     map[string][]byte // file name → its generated contents
	files    map[string]*dosas.File
	expect   map[string][]byte // active op → the output it must return
	params   map[string][]byte // active op → kernel parameters
	pool     [][]byte          // seeded buffers writers cycle through
	written  map[int]int       // write-file block → pool buffer last written there
	live     []string          // small-ops files created and not yet removed
	liveData map[string][]byte // small-ops file → the bytes written to it
	created  int               // small-ops files created so far
	calls    int               // active calls issued so far
	spanID   atomic.Uint64
}

// newEnv generates the workload's inputs from seed. The cluster is not
// booted yet.
func newEnv(wl *workload, seed uint64) (*env, error) {
	e := &env{
		wl:       wl,
		data:     map[string][]byte{},
		expect:   map[string][]byte{},
		params:   map[string][]byte{"sum8": nil, "gaussian2d": dosas.GaussianParams(gaussWidth, false)},
		written:  map[int]int{},
		liveData: map[string][]byte{},
	}
	for _, f := range wl.files {
		e.data[f.name] = generate(f.size, seed, f.stream)
	}
	for i := 0; i < writePool; i++ {
		e.pool = append(e.pool, generate(wl.writeSize, seed, uint64(100+i)))
	}
	if wl.a == clsActive {
		var members [][]byte
		for _, f := range wl.files {
			members = append(members, e.data[f.name])
		}
		for _, op := range activeOps {
			out, err := expectedActive(op, e.params[op], members, stripe, width)
			if err != nil {
				return nil, fmt.Errorf("expected %s: %w", op, err)
			}
			e.expect[op] = out
		}
	}
	return e, nil
}

// boot starts a TCP cluster with its data directory at dir and loads the
// dataset through the client, as a user of dosasd would.
func (e *env) boot(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	c, err := dosas.StartCluster(dosas.Options{TCP: true, DataServers: width, DataDir: dir})
	if err != nil {
		return fmt.Errorf("start cluster: %w", err)
	}
	fs, err := c.Connect(dosas.DOSAS)
	if err != nil {
		c.Close()
		return fmt.Errorf("connect: %w", err)
	}
	e.c, e.fs, e.dir = c, fs, dir
	e.files = map[string]*dosas.File{}
	for _, spec := range e.wl.files {
		f, err := fs.Create(spec.name, dosas.CreateOptions{Width: width})
		if err != nil {
			return fmt.Errorf("create %s: %w", spec.name, err)
		}
		data := e.data[spec.name]
		for off := 0; off < len(data); off += loadChunk {
			end := min(off+loadChunk, len(data))
			if _, err := f.WriteAt(data[off:end], uint64(off)); err != nil {
				return fmt.Errorf("load %s: %w", spec.name, err)
			}
		}
		e.files[spec.name] = f
	}
	return nil
}

// close shuts the cluster down and removes its data directory.
func (e *env) close() {
	if e.fs != nil {
		e.fs.Close()
	}
	if e.c != nil {
		e.c.Close()
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
	e.c, e.fs, e.dir = nil, nil, ""
}

// sample is one successful operation packed into eight bytes, so that a
// phase of several hundred thousand small operations adds little to the
// process's memory: its latency in nanoseconds (40 bits, about 18
// minutes), for active reads which kernel ran (an index into activeOps,
// 4 bits), and when it returned in milliseconds since the phase began
// (20 bits, about 17 minutes).
type sample uint64

func newSample(end, lat time.Duration, kind uint8) sample {
	return sample(uint64(end.Milliseconds())<<44 | uint64(kind&0xf)<<40 | uint64(lat)&(1<<40-1))
}

func (s sample) lat() time.Duration { return time.Duration(s & (1<<40 - 1)) }
func (s sample) kind() int          { return int(s >> 40 & 0xf) }
func (s sample) end() time.Duration { return time.Duration(s>>44) * time.Millisecond }

// clientStats is what one client goroutine recorded in one phase. Each
// client owns its own, so recording needs no locking.
type clientStats struct {
	start    time.Time // when the phase began
	samples  [nClasses][]sample
	bytes    [nClasses]int64
	end      time.Time // when the client's last operation returned
	attempts int
	failed   int
	notes    []string // the first few failures, for the report
	// Active-read provenance.
	parts, bounced, migrated int
	shipped, analysed        uint64
	// Traced phases only.
	traced bool
	calls  []callSpan
	spans  []span
}

const maxFailureNotes = 5

// record files one finished operation of the given kind that ran from
// start to end; err is its error or a failed output check.
func (e *env) record(st *clientStats, cls class, kind uint8, name string, start, end time.Time, bytes int, err error) {
	st.attempts++
	st.end = end
	if err != nil {
		st.failed++
		if len(st.notes) < maxFailureNotes {
			st.notes = append(st.notes, fmt.Sprintf("%s: %v", name, err))
		}
		return
	}
	st.samples[cls] = append(st.samples[cls], newSample(end.Sub(st.start), end.Sub(start), kind))
	st.bytes[cls] += int64(bytes)
	if st.traced && cls != clsActive {
		st.spans = append(st.spans, span{
			ID: e.spanID.Add(1), Layer: "dosas", Name: name,
			Start: start.UnixNano(), End: end.UnixNano(),
		})
	}
}

// activeStep issues one ReadExMany over the whole ensemble, alternating
// kernels, and checks its output.
func activeStep(e *env, _ *rand.Rand, st *clientStats) {
	kind := e.calls % len(activeOps)
	op := activeOps[kind]
	e.calls++
	names := make([]string, len(e.wl.files))
	total := 0
	for i, f := range e.wl.files {
		names[i] = f.name
		total += f.size
	}
	start := time.Now()
	res, err := e.fs.ReadExMany(names, op, e.params[op])
	end := time.Now()
	if err == nil {
		if !res.Completed {
			err = fmt.Errorf("%s: result not completed", op)
		} else {
			err = checkActive(op, res.Output, e.expect[op])
		}
	}
	e.record(st, clsActive, uint8(kind), "ReadExMany/"+op, start, end, total, err)
	if err != nil {
		return
	}
	st.analysed += uint64(total)
	for _, p := range res.Parts {
		st.parts++
		st.shipped += p.BytesShipped
		switch p.Where {
		case dosas.OnCompute:
			st.bounced++
		case dosas.Migrated:
			st.migrated++
		}
	}
	if st.traced {
		st.calls = append(st.calls, callSpan{
			span: span{
				ID: e.spanID.Add(1), Layer: "dosas", Name: "ReadExMany/" + op,
				Start: start.UnixNano(), End: end.UnixNano(),
			},
			parts: len(res.Parts),
		})
	}
}

// readStep returns a client step that reads size bytes at a random
// size-aligned offset of a random file whose name starts with prefix,
// and compares them with the generated data.
func readStep(prefix string, size int) func(*env, *rand.Rand, *clientStats) {
	var buf []byte
	var names []string
	return func(e *env, r *rand.Rand, st *clientStats) {
		if buf == nil {
			buf = make([]byte, size)
			names = e.matching(prefix)
		}
		name := names[r.IntN(len(names))]
		data := e.data[name]
		off := r.IntN(len(data)/size) * size
		start := time.Now()
		n, err := e.files[name].ReadAt(buf, uint64(off))
		end := time.Now()
		err = checkRead(buf, n, err, data[off:off+size])
		e.record(st, clsRead, 0, "ReadAt", start, end, size, err)
	}
}

// writeStep returns a client step that writes one of the seeded pool
// buffers over a random size-aligned block of the workload's writeFile,
// remembering which, so the block can be read back after the run.
func writeStep(size int) func(*env, *rand.Rand, *clientStats) {
	return func(e *env, r *rand.Rand, st *clientStats) {
		name := e.wl.writeFile
		block := r.IntN(len(e.data[name]) / size)
		src := r.IntN(len(e.pool))
		start := time.Now()
		n, err := e.files[name].WriteAt(e.pool[src], uint64(block*size))
		end := time.Now()
		if err == nil && n != size {
			err = fmt.Errorf("short write: %d of %d bytes", n, size)
		}
		e.record(st, clsWrite, 0, "WriteAt", start, end, size, err)
		if err == nil {
			e.written[block] = src
		}
	}
}

// metaStep runs one small-file cycle: create, write 4 KiB, stat, and
// remove the file created liveSmall cycles earlier. Keeping the last few
// files lets the post-run check read back what was written.
func metaStep(e *env, r *rand.Rand, st *clientStats) {
	name := fmt.Sprintf("%s%08d", smallPrefix, e.created)
	e.created++
	start := time.Now()
	f, err := e.fs.Create(name)
	e.record(st, clsMeta, 0, "Create", start, time.Now(), 0, err)
	if err != nil {
		return
	}
	src := e.pool[r.IntN(len(e.pool))]
	start = time.Now()
	n, err := f.WriteAt(src, 0)
	end := time.Now()
	if err == nil && n != len(src) {
		err = fmt.Errorf("short write: %d of %d bytes", n, len(src))
	}
	e.record(st, clsWrite, 0, "WriteAt", start, end, len(src), err)
	start = time.Now()
	info, err := e.fs.Stat(name)
	end = time.Now()
	if err == nil {
		err = checkSize(name, info.Size, uint64(len(src)))
	}
	e.record(st, clsMeta, 0, "Stat", start, end, 0, err)
	e.liveData[name] = src
	e.live = append(e.live, name)
	if len(e.live) > liveSmall {
		victim := e.live[0]
		e.live = e.live[1:]
		delete(e.liveData, victim)
		start = time.Now()
		err := e.fs.Remove(victim)
		e.record(st, clsMeta, 0, "Remove", start, time.Now(), 0, err)
	}
}

// matching lists the dataset files whose names start with prefix.
func (e *env) matching(prefix string) []string {
	var out []string
	for _, f := range e.wl.files {
		if strings.HasPrefix(f.name, prefix) {
			out = append(out, f.name)
		}
	}
	return out
}

// phase is the merged record of both clients over one measured window.
type phase struct {
	start time.Time
	dur   time.Duration
	a, b  *clientStats
}

// runPhase runs both clients in closed loop for d and returns what they
// recorded. Client A and client B share the one FS.
func (e *env) runPhase(d time.Duration, seed uint64, traced bool) *phase {
	now := time.Now()
	p := &phase{start: now, dur: d, a: &clientStats{start: now, traced: traced}, b: &clientStats{start: now, traced: traced}}
	deadline := p.start.Add(d)
	var wg sync.WaitGroup
	loop := func(step func(*env, *rand.Rand, *clientStats), st *clientStats, stream uint64) {
		defer wg.Done()
		r := rand.New(rand.NewPCG(seed, stream))
		for time.Now().Before(deadline) {
			step(e, r, st)
		}
	}
	wg.Add(2)
	go loop(e.wl.stepA, p.a, 1000+uint64(e.calls+e.created))
	go loop(e.wl.stepB, p.b, 2000+uint64(e.calls+e.created))
	wg.Wait()
	return p
}

// verify checks the cluster's final state after the clients stopped:
// every dataset file has its size, every block a writer touched reads
// back as last written, and the small-ops survivors read back and are
// exactly the files left under their prefix. It returns the number of
// checks made and the failures.
func (e *env) verify() (int, []string) {
	checks := 0
	var fails []string
	fail := func(err error) {
		if err != nil {
			fails = append(fails, err.Error())
		}
	}
	for _, spec := range e.wl.files {
		checks++
		info, err := e.fs.Stat(spec.name)
		if err == nil {
			err = checkSize(spec.name, info.Size, uint64(spec.size))
		}
		fail(err)
	}
	blocks := make([]int, 0, len(e.written))
	for b := range e.written {
		blocks = append(blocks, b)
	}
	sort.Ints(blocks)
	if len(blocks) > 0 {
		f := e.files[e.wl.writeFile]
		buf := make([]byte, e.wl.writeSize)
		for _, b := range blocks {
			checks++
			n, err := f.ReadAt(buf, uint64(b*e.wl.writeSize))
			fail(checkRead(buf, n, err, e.pool[e.written[b]]))
		}
	}
	if e.created > 0 {
		for _, name := range e.live {
			checks++
			f, err := e.fs.Open(name)
			if err == nil {
				want := e.liveData[name]
				buf := make([]byte, len(want))
				n, rerr := f.ReadAt(buf, 0)
				err = checkRead(buf, n, rerr, want)
			}
			fail(err)
		}
		checks++
		names, err := e.fs.List(smallPrefix)
		if err == nil && !sameSet(names, e.live) {
			err = fmt.Errorf("list %s: %d files, want the %d survivors", smallPrefix, len(names), len(e.live))
		}
		fail(err)
	}
	return checks, fails
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	seen := map[string]bool{}
	for _, s := range a {
		seen[s] = true
	}
	for _, s := range b {
		if !seen[s] {
			return false
		}
	}
	return true
}
