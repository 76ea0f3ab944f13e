package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"dosas"
	"dosas/internal/trace"
)

// span is one timed step: either a call the benchmark made into the
// program's public API, or a lifecycle span the program recorded in its
// own trace rings, re-parented under the call that caused it.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	TraceID uint64 `json:"trace_id,omitempty"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	Node    string `json:"node,omitempty"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// interval is a half-open time range in unix nanoseconds.
type interval struct{ lo, hi int64 }

// coveredNS is how much of [lo, hi) the union of ivs covers. Overlapping
// intervals count once.
func coveredNS(lo, hi int64, ivs []interval) int64 {
	var clipped []interval
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		if iv.hi <= end {
			continue
		}
		if iv.lo > end {
			end = iv.lo
		}
		total += iv.hi - end
		end = iv.hi
	}
	return total
}

// selfNS is a span's duration minus the part of it its children cover.
func selfNS(parent span, children []span) int64 {
	ivs := make([]interval, len(children))
	for i, c := range children {
		ivs[i] = interval{c.Start, c.End}
	}
	return parent.dur() - coveredNS(parent.Start, parent.End, ivs)
}

// attribute splits [lo, hi) among layers: every instant goes to the
// first layer (in the given priority order) with a span covering it, and
// instants no layer covers go to the residual, the last element of the
// result. The parts always sum to hi-lo, so a layer table built from
// them accounts for the whole wall time.
func attribute(lo, hi int64, layers [][]interval) []int64 {
	out := make([]int64, len(layers)+1)
	cuts := []int64{lo, hi}
	for _, ivs := range layers {
		for _, iv := range ivs {
			if iv.lo > lo && iv.lo < hi {
				cuts = append(cuts, iv.lo)
			}
			if iv.hi > lo && iv.hi < hi {
				cuts = append(cuts, iv.hi)
			}
		}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		if a == b {
			continue
		}
		slot := len(layers)
	search:
		for li, ivs := range layers {
			for _, iv := range ivs {
				if iv.lo <= a && iv.hi >= b {
					slot = li
					break search
				}
			}
		}
		out[slot] += b - a
	}
	return out
}

// drainer copies the program's bounded rings (trace events and decision
// records) into memory while a traced phase runs, so ring overwrite
// cannot silently drop spans. Sequence numbers are per ring; anything at
// or below the last seen sequence is a duplicate, and a jump counts the
// events the ring overwrote before a drain reached them.
type drainer struct {
	mu      sync.Mutex
	lastEv  map[string]uint64
	lastRec map[string]uint64
	events  map[string][]dosas.TraceEvent
	records map[recKey]dosas.DecisionRecord
	lostEv  uint64
}

type recKey struct {
	node string
	seq  uint64
}

func newDrainer() *drainer {
	return &drainer{
		lastEv:  map[string]uint64{},
		lastRec: map[string]uint64{},
		events:  map[string][]dosas.TraceEvent{},
		records: map[recKey]dosas.DecisionRecord{},
	}
}

// addEvents merges one snapshot of ring's events. With keep false it only
// advances the cursor (the baseline taken when the phase starts).
func (d *drainer) addEvents(ring string, evs []dosas.TraceEvent, keep bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	last := d.lastEv[ring]
	for _, e := range evs {
		if e.Seq <= last {
			continue
		}
		if keep && e.Seq > last+1 {
			d.lostEv += e.Seq - last - 1
		}
		last = e.Seq
		if keep {
			d.events[ring] = append(d.events[ring], e)
		}
	}
	d.lastEv[ring] = last
}

// addRecords merges one snapshot of a node's decision ring. A record seen
// again replaces the kept copy: its outcome is filled in after the
// decision, so the newest copy is the most complete. With keep false it
// only moves the baseline.
func (d *drainer) addRecords(node string, recs []dosas.DecisionRecord, keep bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	base := d.lastRec[node]
	for _, r := range recs {
		switch {
		case !keep:
			d.lastRec[node] = max(d.lastRec[node], r.Seq)
		case r.Seq > base:
			d.records[recKey{node, r.Seq}] = r
		}
	}
}

// lostRecords counts decision records that were overwritten before a
// drain reached them: gaps in each node's kept sequence numbers.
func (d *drainer) lostRecords() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	high := map[string]uint64{}
	count := map[string]uint64{}
	for k := range d.records {
		high[k.node] = max(high[k.node], k.seq)
		count[k.node]++
	}
	var lost uint64
	for node, h := range high {
		lost += h - d.lastRec[node] - count[node]
	}
	return lost
}

// drain snapshots every ring of the cluster and the client once.
func (d *drainer) drain(c *dosas.Cluster, fs *dosas.FS, nodes int, keep bool) {
	d.addEvents("client", fs.TraceEvents(), keep)
	for i := 0; i < nodes; i++ {
		name := fmt.Sprintf("data-%d", i)
		if evs, err := c.TraceEvents(i); err == nil {
			d.addEvents(name, evs, keep)
		}
		if recs, err := c.DecisionLog(i); err == nil {
			d.addRecords(name, recs, keep)
		}
	}
}

// run drains every period until stop is closed, then once more, and
// closes done.
func (d *drainer) run(c *dosas.Cluster, fs *dosas.FS, nodes int, period time.Duration, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-stop:
			d.drain(c, fs, nodes, true)
			return
		case <-t.C:
			d.drain(c, fs, nodes, true)
		}
	}
}

// decisionRecords returns the kept decision records in time order.
func (d *drainer) decisionRecords() []dosas.DecisionRecord {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]dosas.DecisionRecord, 0, len(d.records))
	for _, r := range d.records {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TimeUnixNano != out[j].TimeUnixNano {
			return out[i].TimeUnixNano < out[j].TimeUnixNano
		}
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// callSpan is one ReadExMany the benchmark timed in the traced phase,
// with the parts its result reported.
type callSpan struct {
	span
	parts int
}

// joined is the program's lifecycle spans attached to the benchmark's
// active calls, plus what the join could and could not find.
type joined struct {
	children map[uint64][]span // call span ID → program spans
	covered  int               // calls whose every part's server phases were found
	calls    int
}

// partKey identifies one part of an active read on one storage node.
type partKey struct {
	node    string
	traceID uint64
	reqID   uint64
}

// partSeen records which server-side lifecycle steps of a part were
// found in the drained rings.
type partSeen struct {
	arrive, start, reject, finish bool
}

func (p partSeen) complete() bool {
	return p.arrive && (p.reject || (p.start && p.finish))
}

// join attaches drained events to the calls that caused them. A trace
// belongs to the call whose interval holds its client-side issue event;
// the active client runs one call at a time, so the intervals do not
// overlap. Spans are derived from events carrying a duration: the event
// marks the end, Dur reaches back to the start.
func join(calls []callSpan, events map[string][]dosas.TraceEvent, nextID func() uint64) joined {
	j := joined{children: map[uint64][]span{}, calls: len(calls)}
	owner := map[uint64]int{} // trace ID → call index
	issues := map[int][]partKey{}
	for _, e := range events["client"] {
		if e.Kind != trace.KindIssue {
			continue
		}
		t := e.Time.UnixNano()
		i := sort.Search(len(calls), func(i int) bool { return calls[i].End >= t })
		if i == len(calls) || calls[i].Start > t {
			continue
		}
		owner[e.TraceID] = i
		var server int
		if _, err := fmt.Sscanf(e.Note, "server %d", &server); err != nil {
			continue
		}
		issues[i] = append(issues[i], partKey{fmt.Sprintf("data-%d", server), e.TraceID, e.ReqID})
	}
	seen := map[partKey]*partSeen{}
	for ring, evs := range events {
		for _, e := range evs {
			i, ok := owner[e.TraceID]
			if !ok {
				continue
			}
			if ring != "client" {
				k := partKey{ring, e.TraceID, e.ReqID}
				p := seen[k]
				if p == nil {
					p = &partSeen{}
					seen[k] = p
				}
				switch e.Kind {
				case trace.KindArrive:
					p.arrive = true
				case trace.KindStart:
					p.start = true
				case trace.KindReject:
					p.reject = true
				case trace.KindComplete, trace.KindMigrate:
					p.finish = true
				}
			}
			if e.Dur <= 0 || e.Phase == "" && e.Kind != trace.KindRespond {
				continue
			}
			layer, name := spanLayer(ring, e)
			end := e.Time.UnixNano()
			j.children[calls[i].ID] = append(j.children[calls[i].ID], span{
				ID: nextID(), Parent: calls[i].ID, TraceID: e.TraceID,
				Layer: layer, Name: name, Node: ring,
				Start: end - int64(e.Dur), End: end,
			})
		}
	}
	for i, c := range calls {
		parts := issues[i]
		ok := len(parts) == c.parts && c.parts > 0
		for _, k := range parts {
			if p := seen[k]; p == nil || !p.complete() {
				ok = false
				break
			}
		}
		if ok {
			j.covered++
		}
	}
	return j
}

// spanLayer names the layer and step a program span belongs to.
func spanLayer(ring string, e dosas.TraceEvent) (layer, name string) {
	side := "storage"
	if ring == "client" {
		side = "client"
	}
	switch {
	case e.Kind == trace.KindRespond:
		return "wire", "rpc"
	case e.Phase == trace.PhaseKernel:
		return "kernels", side + "-kernel"
	case e.Phase == trace.PhaseTransfer:
		return "pfs", "transfer"
	case e.Phase == trace.PhaseQueueWait:
		return "core", "queue-wait"
	case e.Phase == trace.PhaseDecision:
		return "core", "decision"
	default:
		return "core", e.Phase
	}
}

// breakdownLayers is the priority order of the active-call layer table:
// an instant where several parts overlap is charged to the first layer
// listed that is busy then. Kernel compute first, then bulk transfer,
// then waiting in the runtime queue, then the scheduler's decision, then
// the remainder of the storage round trip (codec, mux, transport, the
// data server); the residual is the client library's own time.
var breakdownLayers = []struct{ metric, layer, name string }{
	{"breakdown.kernels_frac", "kernels", ""},
	{"breakdown.transfer_frac", "pfs", "transfer"},
	{"breakdown.queue_wait_frac", "core", "queue-wait"},
	{"breakdown.decision_frac", "core", "decision"},
	{"breakdown.rpc_frac", "wire", "rpc"},
}

// breakdown returns the total nanoseconds each breakdownLayers entry
// (plus the residual, last) accounts for across calls.
func breakdown(calls []callSpan, children map[uint64][]span) []int64 {
	tot := make([]int64, len(breakdownLayers)+1)
	for _, c := range calls {
		layers := make([][]interval, len(breakdownLayers))
		for _, s := range children[c.ID] {
			for li, bl := range breakdownLayers {
				if s.Layer == bl.layer && (bl.name == "" || s.Name == bl.name) {
					layers[li] = append(layers[li], interval{s.Start, s.End})
					break
				}
			}
		}
		for i, v := range attribute(c.Start, c.End, layers) {
			tot[i] += v
		}
	}
	return tot
}

// writeSpans writes every span as one JSON array to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
