package wire_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"testing/quick"

	"dosas/internal/eventlog"
	"dosas/internal/pfs"
	"dosas/internal/slo"
	"dosas/internal/tenant"
	"dosas/internal/wire"
)

// inspectRoundTrip carries one inspect exchange of kind k through the
// framing layer the way a sweep and a serving node do: args and body
// JSON-encoded into an InspectReq and an InspectResp, each written,
// read back and decoded. Args are decoded strictly, as a node decodes
// them off the network. It reports whether the kind name, node, args
// and body all survived unchanged.
func inspectRoundTrip[A, B any](t *testing.T, k pfs.Kind[A, B], node string, args A, body B) bool {
	t.Helper()
	rawArgs, err := json.Marshal(args)
	if err != nil {
		t.Fatalf("%s args: %v", k.Name, err)
	}
	req := frameRoundTrip(t, &wire.InspectReq{Kind: k.Name, Args: rawArgs}).(*wire.InspectReq)
	if req.Kind != k.Name {
		return false
	}
	var gotArgs A
	dec := json.NewDecoder(bytes.NewReader(req.Args))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&gotArgs); err != nil || !reflect.DeepEqual(gotArgs, args) {
		return false
	}
	rawBody, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("%s body: %v", k.Name, err)
	}
	resp := frameRoundTrip(t, &wire.InspectResp{Node: node, Role: "data", Body: rawBody}).(*wire.InspectResp)
	var gotBody B
	if err := json.Unmarshal(resp.Body, &gotBody); err != nil {
		return false
	}
	return resp.Node == node && resp.Role == "data" && reflect.DeepEqual(gotBody, body)
}

// frameRoundTrip writes m through the framing layer and reads it back.
func frameRoundTrip(t *testing.T, m wire.Message) wire.Message {
	t.Helper()
	var buf bytes.Buffer
	if err := wire.WriteMessage(&buf, m); err != nil {
		t.Fatalf("WriteMessage(%v): %v", m.Type(), err)
	}
	got, err := wire.ReadMessage(&buf)
	if err != nil {
		t.Fatalf("ReadMessage(%v): %v", m.Type(), err)
	}
	return got
}

// TestDecisionLogCodecQuick property-checks the decision-log exchange
// over arbitrary filter, drop-count and node values. Arbitrary,
// non-JSON bodies are TestInspectCodecQuick's concern.
func TestDecisionLogCodecQuick(t *testing.T) {
	f := func(limit, trace, dropped uint64, node string) bool {
		return inspectRoundTrip(t, pfs.InspectDecisions, node,
			pfs.DecisionArgs{Limit: limit, TraceID: trace},
			pfs.DecisionBody{Dropped: dropped})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTenantStatsCodecQuick property-checks the tenant-table exchange
// over arbitrary eviction counts, tenant names and usage counters.
func TestTenantStatsCodecQuick(t *testing.T) {
	f := func(evicted, readOps, bytesRead uint64, node, name string) bool {
		return inspectRoundTrip(t, pfs.InspectTenants, node, pfs.NoArgs{},
			pfs.TenantBody{Evicted: evicted, Usage: []tenant.Usage{
				{Tenant: name, ReadOps: readOps, BytesRead: bytesRead},
			}})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEventAlertCodecQuick property-checks the event-tail and alert
// exchanges over arbitrary cursors, limits, levels and alert labels.
func TestEventAlertCodecQuick(t *testing.T) {
	f := func(since, limit, next, dropped uint64, minLevel uint8, node, rule string) bool {
		if !inspectRoundTrip(t, pfs.InspectEvents, node,
			pfs.EventArgs{SinceSeq: since, Limit: limit, MinLevel: minLevel},
			eventlog.Page{NextSeq: next, Dropped: dropped}) {
			return false
		}
		return inspectRoundTrip(t, pfs.InspectAlerts, node, pfs.NoArgs{},
			[]slo.Alert{{Rule: rule, Node: node, Severity: "page"}})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRangeQueryCodecQuick property-checks the archive range-query
// exchange over arbitrary series names and windows, negative ones
// included, and arbitrary retention horizons.
func TestRangeQueryCodecQuick(t *testing.T) {
	f := func(name, node string, from, to, step, earliest int64) bool {
		return inspectRoundTrip(t, pfs.InspectQuery, node,
			pfs.QueryArgs{Name: name, FromNano: from, ToNano: to, StepNano: step},
			pfs.QueryBody{EarliestNano: earliest})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
