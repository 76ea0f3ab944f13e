package pfs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"dosas/internal/audit"
	"dosas/internal/eventlog"
	"dosas/internal/slo"
	"dosas/internal/telemetry"
	"dosas/internal/tenant"
	"dosas/internal/trace"
	"dosas/internal/tsdb"
	"dosas/internal/wire"
)

// fuzzNodes builds a data server with every inspect source attached and
// a metadata server with its telemetry stack, so every provider is
// reachable from the fuzzer.
func fuzzNodes(f *testing.F) (*DataServer, *MetaServer) {
	tele := telemetry.NewSampler(telemetry.Config{Capacity: 8})
	tele.Register("queue.depth", func() float64 { return 3 })
	for i := 0; i < 4; i++ {
		tele.Tick()
	}
	events, err := eventlog.New(eventlog.Config{Node: "data-0", Capacity: 16})
	if err != nil {
		f.Fatal(err)
	}
	events.Warn("fuzz", "seeded", "k", "v")
	engine, err := slo.NewEngine(slo.Config{Rules: slo.DefaultRules(), Sampler: tele, Node: "data-0"})
	if err != nil {
		f.Fatal(err)
	}
	arch, err := tsdb.Open(tsdb.Config{Dir: f.TempDir()})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { arch.Close() })
	now := time.Now().UnixNano()
	if err := arch.Append(now, 0, []telemetry.Sample{{Name: "queue.depth", Value: 3}}); err != nil {
		f.Fatal(err)
	}
	tr := trace.NewRecorder(16)
	tr.Record(trace.KindArrive, 1, "sum8", 64, "")
	alog := audit.NewLog(16)
	alog.Append(audit.Record{Solver: "maxgain", Trigger: "admit"})
	tab := tenant.NewTable(4)
	tab.Account("app-a", func(s *tenant.Stats) { s.ReadOps++ })

	ds, err := NewDataServer(DataConfig{
		Store: NewMemStore(), Node: "data-0", Trace: tr, Telemetry: tele, Audit: alog,
		Events: events, SLO: engine, Tenants: tab, Archive: arch,
	})
	if err != nil {
		f.Fatal(err)
	}
	m, err := NewMetaServer(MetaConfig{NumDataServers: 1, Events: events, SLO: engine, Archive: arch})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { m.Close() })
	return ds, m
}

// frame wraps body as one wire frame of type t.
func frame(t wire.MsgType, body []byte) []byte {
	out := make([]byte, 6, 6+len(body))
	binary.LittleEndian.PutUint32(out[0:4], uint32(2+len(body)))
	binary.LittleEndian.PutUint16(out[4:6], uint16(t))
	return append(out, body...)
}

// FuzzInspect sends arbitrary kinds and argument bytes to a data and a
// metadata server's inspect plane: no input may panic a node, and every
// refusal must be ErrUnsupported (no such kind here) or ErrInvalid
// (malformed arguments). The same bytes are also decoded as InspectReq
// and InspectResp frame bodies, which must never panic and must
// re-encode to what they decoded from.
func FuzzInspect(f *testing.F) {
	ds, m := fuzzNodes(f)
	for _, seed := range []struct {
		kind string
		args string
	}{
		{"stats", ``}, {"health", `{}`}, {"trace", `{"trace_id":1}`},
		{"series", `{"window_nano":-1,"names":["queue.depth"]}`},
		{"decisions", `{"limit":1}`}, {"events", `{"since_seq":1,"min_level":3}`},
		{"alerts", `{}`}, {"tenants", `{}`},
		{"query", `{"name":"queue.depth","to_nano":9000000000000000000,"step_nano":1}`},
		{"nope", `{`},
	} {
		f.Add(seed.kind, []byte(seed.args))
	}
	f.Fuzz(func(t *testing.T, kind string, args []byte) {
		for _, h := range []Handler{ds, m} {
			resp, err := h.Handle(&wire.InspectReq{Kind: kind, Args: args})
			switch {
			case err == nil:
				if _, ok := resp.(*wire.InspectResp); !ok {
					t.Fatalf("%q: answered %T", kind, resp)
				}
			case !errors.Is(err, ErrUnsupported) && !errors.Is(err, ErrInvalid):
				t.Fatalf("%q %q: unexpected error class: %v", kind, args, err)
			}
		}
		for _, mt := range []wire.MsgType{wire.MsgInspectReq, wire.MsgInspectResp} {
			msg, err := wire.ReadMessage(bytes.NewReader(frame(mt, args)))
			if err != nil {
				continue
			}
			var again bytes.Buffer
			if err := wire.WriteMessage(&again, msg); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), frame(mt, args)) {
				t.Fatalf("%v: decoded frame does not re-encode to its bytes", mt)
			}
		}
	})
}
