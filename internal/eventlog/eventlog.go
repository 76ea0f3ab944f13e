// Package eventlog is the structured event log every DOSAS daemon
// writes operational events to: leveled, key-value, JSON-line records
// kept in a bounded in-memory ring (tailed over the wire by dosasctl
// events) and optionally mirrored to a file sink and a human-readable
// writer. It replaces ad-hoc log.Printf calls so that "what happened on
// node 3" has one queryable answer.
//
// The ring is a fixed-capacity overwrite buffer like the trace and
// telemetry rings: appends never block and never allocate beyond the
// ring, and a cumulative Dropped counter records how many events were
// overwritten before anyone fetched them. Every event carries a
// node-local sequence number so remote tails can resume from a cursor
// (Snapshot(sinceSeq, ...)) without re-reading history.
package eventlog

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Level orders event severities. The zero value is Debug, so a zero
// MinLevel keeps everything.
type Level uint8

// Severity levels, least to most severe.
const (
	Debug Level = iota
	Info
	Warn
	Error
)

var levelNames = [...]string{"debug", "info", "warn", "error"}

// String renders the canonical lower-case level name.
func (l Level) String() string {
	if int(l) < len(levelNames) {
		return levelNames[l]
	}
	return fmt.Sprintf("level(%d)", uint8(l))
}

// ParseLevel is the inverse of String, accepting any case.
func ParseLevel(s string) (Level, error) {
	for i, name := range levelNames {
		if strings.EqualFold(s, name) {
			return Level(i), nil
		}
	}
	return Debug, fmt.Errorf("eventlog: unknown level %q", s)
}

// Field is one key-value pair attached to an event. Fields are a slice,
// not a map, so their order is the order the caller gave them and
// encoding is deterministic.
type Field struct {
	K string `json:"k"`
	V string `json:"v"`
}

// Event is one structured log record.
type Event struct {
	// Seq is the node-local sequence number, monotonically increasing
	// from 1. Gaps between consecutively fetched events mean the ring
	// overwrote the missing ones.
	Seq uint64 `json:"seq"`
	// UnixNano is the wall-clock time the event was logged.
	UnixNano int64 `json:"t"`
	// Level is the canonical level name ("debug".."error").
	Level string `json:"level"`
	// Node names the emitting node ("data-0", "meta").
	Node string `json:"node,omitempty"`
	// Sub is the emitting subsystem ("runtime", "slo", "journal").
	Sub string `json:"sub"`
	// Msg is the human-readable message, stable across occurrences so
	// it can be grouped; variation goes in Fields.
	Msg string `json:"msg"`
	// Fields carries the structured context, in logging order.
	Fields []Field `json:"fields,omitempty"`
}

// Config configures a Log. The zero value is usable: a 1024-event ring
// keeping Debug and up, with no node name, mirror, or file sink.
type Config struct {
	// Node names the emitting node on every event.
	Node string
	// Capacity bounds the in-memory ring (default 1024).
	Capacity int
	// MinLevel drops events below this level before they reach the
	// ring, mirror, or sink.
	MinLevel Level
	// Mirror, when set, receives every retained event as one
	// human-readable line (daemons point it at stderr to keep their
	// console output).
	Mirror io.Writer
	// Path, when set, appends every retained event as one JSON line to
	// this file (the optional durable sink).
	Path string
	// MaxBytes caps the file sink's on-disk footprint across the live
	// file and its one rotated predecessor (Path + ".1"). When the live
	// file reaches half the cap it is renamed onto the predecessor —
	// dropping the oldest half of the retained history, like the flight
	// recorder's DirMaxBytes pruning — and a fresh file is started, so
	// the sink never grows without bound. 0 takes DefaultSinkMaxBytes;
	// negative means unbounded (the pre-rotation behavior).
	MaxBytes int64
	// Now overrides the clock for tests.
	Now func() time.Time
}

// DefaultSinkMaxBytes bounds the JSONL file sink at 64 MiB — roughly a
// million events across the live file and its rotated predecessor.
const DefaultSinkMaxBytes = 64 << 20

// Log is a leveled, bounded, concurrency-safe event log. A nil *Log is
// a valid no-op: every method works and logging is discarded, so
// components can take an optional log without nil checks.
type Log struct {
	mu      sync.Mutex
	cfg     Config
	ring    []Event
	next    int
	full    bool
	seq     uint64
	dropped uint64
	now     func() time.Time

	// The file sink has its own lock so a slow disk stalls only other
	// file writers, never the ring or the mirror.
	fileMu   sync.Mutex
	file     *os.File
	fileSize int64
	maxBytes int64
}

// New creates a Log. It fails only when Config.Path cannot be opened
// for append.
func New(cfg Config) (*Log, error) {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1024
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	l := &Log{cfg: cfg, ring: make([]Event, cfg.Capacity), now: now}
	switch {
	case cfg.MaxBytes == 0:
		l.maxBytes = DefaultSinkMaxBytes
	case cfg.MaxBytes < 0:
		l.maxBytes = 0 // unbounded
	default:
		l.maxBytes = cfg.MaxBytes
	}
	if cfg.Path != "" {
		f, err := os.OpenFile(cfg.Path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("eventlog: open sink: %w", err)
		}
		l.file = f
		if info, err := f.Stat(); err == nil {
			l.fileSize = info.Size()
		}
	}
	return l, nil
}

// Close flushes and closes the file sink, if any.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	l.fileMu.Lock()
	defer l.fileMu.Unlock()
	if l.file == nil {
		return nil
	}
	err := l.file.Close()
	l.file = nil
	return err
}

// Debug logs at Debug level. kv is alternating keys and values; a
// trailing key without a value gets "".
func (l *Log) Debug(sub, msg string, kv ...string) { l.emit(Debug, sub, msg, kv) }

// Info logs at Info level.
func (l *Log) Info(sub, msg string, kv ...string) { l.emit(Info, sub, msg, kv) }

// Warn logs at Warn level.
func (l *Log) Warn(sub, msg string, kv ...string) { l.emit(Warn, sub, msg, kv) }

// Error logs at Error level.
func (l *Log) Error(sub, msg string, kv ...string) { l.emit(Error, sub, msg, kv) }

func (l *Log) emit(level Level, sub, msg string, kv []string) {
	if l == nil || level < l.cfg.MinLevel {
		return
	}
	var fields []Field
	for i := 0; i < len(kv); i += 2 {
		f := Field{K: kv[i]}
		if i+1 < len(kv) {
			f.V = kv[i+1]
		}
		fields = append(fields, f)
	}
	l.mu.Lock()
	l.seq++
	ev := Event{
		Seq:      l.seq,
		UnixNano: l.now().UnixNano(),
		Level:    level.String(),
		Node:     l.cfg.Node,
		Sub:      sub,
		Msg:      msg,
		Fields:   fields,
	}
	if l.full {
		l.dropped++
	}
	l.ring[l.next] = ev
	l.next++
	if l.next == len(l.ring) {
		l.next = 0
		l.full = true
	}
	mirror := l.cfg.Mirror
	l.mu.Unlock()
	// Sinks are written outside the ring lock: a slow disk or pipe must
	// not stall concurrent loggers. Per-sink interleaving is acceptable —
	// the ring is the ordered record.
	if mirror != nil {
		io.WriteString(mirror, FormatEvent(ev)+"\n")
	}
	l.writeSink(ev)
}

// writeSink appends one event to the JSONL file, rotating first when
// the live file has reached half the byte budget: the previous rotated
// file (the oldest half of retained history) is dropped, the live file
// becomes the rotated one, and a fresh live file is started — so live
// plus predecessor never exceed the budget while the newest events are
// always retained.
func (l *Log) writeSink(ev Event) {
	l.fileMu.Lock()
	defer l.fileMu.Unlock()
	if l.file == nil {
		return
	}
	b, err := json.Marshal(ev)
	if err != nil {
		return
	}
	b = append(b, '\n')
	if l.maxBytes > 0 && l.fileSize > 0 && l.fileSize+int64(len(b)) > l.maxBytes/2 {
		l.file.Close()
		prev := l.cfg.Path + ".1"
		os.Remove(prev)
		os.Rename(l.cfg.Path, prev)
		f, err := os.OpenFile(l.cfg.Path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			l.file = nil
			return
		}
		l.file = f
		l.fileSize = 0
	}
	if n, err := l.file.Write(b); err == nil {
		l.fileSize += int64(n)
	}
}

// Page is one consistent read of the ring: the matching events, the
// sequence number the next event will get, and how many events the
// ring has overwritten, all taken under one lock. Feeding NextSeq-1
// back as the next Tail cursor therefore never skips an event: anything
// logged after this read has Seq >= NextSeq.
type Page struct {
	Events  []Event `json:"events"`
	NextSeq uint64  `json:"next_seq"`
	Dropped uint64  `json:"dropped,omitempty"`
}

// Tail returns retained events with Seq > sinceSeq and level >= min,
// oldest first, at most limit newest (limit <= 0 means all), together
// with the resume cursor and drop count of the same instant.
func (l *Log) Tail(sinceSeq uint64, min Level, limit int) Page {
	if l == nil {
		return Page{NextSeq: 1}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.next
	if l.full {
		n = len(l.ring)
	}
	out := make([]Event, 0, n)
	start := 0
	if l.full {
		start = l.next
	}
	for i := 0; i < n; i++ {
		ev := l.ring[(start+i)%len(l.ring)]
		if ev.Seq <= sinceSeq {
			continue
		}
		if lv, err := ParseLevel(ev.Level); err == nil && lv < min {
			continue
		}
		out = append(out, ev)
	}
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return Page{Events: out, NextSeq: l.seq + 1, Dropped: l.dropped}
}

// Snapshot returns the events of Tail(sinceSeq, min, limit).
func (l *Log) Snapshot(sinceSeq uint64, min Level, limit int) []Event {
	return l.Tail(sinceSeq, min, limit).Events
}

// NextSeq returns the sequence number the next event will get. Passing
// NextSeq()-1 as a Snapshot cursor yields only events logged afterwards.
func (l *Log) NextSeq() uint64 {
	if l == nil {
		return 1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq + 1
}

// Dropped reports how many events the ring has overwritten since the
// log was created.
func (l *Log) Dropped() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// EncodeEvents marshals events as the canonical JSON array.
func EncodeEvents(events []Event) ([]byte, error) {
	if len(events) == 0 {
		return []byte("[]"), nil
	}
	return json.Marshal(events)
}

// DecodeEvents is the inverse of EncodeEvents.
func DecodeEvents(data []byte) ([]Event, error) {
	if len(data) == 0 {
		return nil, nil
	}
	var out []Event
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("eventlog: decode events: %w", err)
	}
	return out, nil
}

// FormatEvent renders one event as the human-readable line dosasctl
// events prints and Mirror writers receive:
//
//	15:04:05.000 WARN  data-0/slo rule pending rule=bounce-burn value=0.12
func FormatEvent(ev Event) string {
	var b strings.Builder
	b.WriteString(time.Unix(0, ev.UnixNano).Format("15:04:05.000"))
	fmt.Fprintf(&b, " %-5s ", strings.ToUpper(ev.Level))
	if ev.Node != "" {
		b.WriteString(ev.Node)
		b.WriteByte('/')
	}
	b.WriteString(ev.Sub)
	b.WriteByte(' ')
	b.WriteString(ev.Msg)
	for _, f := range ev.Fields {
		fmt.Fprintf(&b, " %s=%s", f.K, f.V)
	}
	return b.String()
}

// Merge interleaves per-node event slices into one timeline ordered by
// time, with ties broken by node then sequence — the same convention as
// the trace timeline and decision-log merges.
func Merge(byNode ...[]Event) []Event {
	var out []Event
	for _, evs := range byNode {
		out = append(out, evs...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].UnixNano != out[j].UnixNano {
			return out[i].UnixNano < out[j].UnixNano
		}
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}
