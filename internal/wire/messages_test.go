package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

// roundTrip writes m through the framing layer and reads it back.
func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); err != nil {
		t.Fatalf("WriteMessage(%v): %v", m.Type(), err)
	}
	got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatalf("ReadMessage(%v): %v", m.Type(), err)
	}
	return got
}

func TestAllMessagesRoundTrip(t *testing.T) {
	layout := Layout{StripeSize: 4096, Servers: []uint32{2, 0, 1}}
	msgs := []Message{
		&ErrorMsg{Code: StatusNotFound, Op: "open", Detail: "no such file"},
		&Ping{Seq: 7},
		&Pong{Seq: 7},
		&CreateReq{Name: "a/b", StripeSize: 1 << 16, Width: 4},
		&CreateReq{Name: "placed", StripeSize: 1 << 16, Placement: []uint32{2, 0}},
		&CreateResp{Handle: 9, Layout: layout},
		&OpenReq{Name: "a/b"},
		&OpenResp{Handle: 9, Size: 1 << 30, Layout: layout},
		&StatReq{Name: "a/b"},
		&StatResp{Handle: 9, Size: 12345, ModUnixN: -99, Layout: layout},
		&RemoveReq{Name: "x"},
		&RemoveResp{Handle: 3},
		&ListReq{Prefix: "data/"},
		&ListResp{Names: []string{"data/a", "data/b"}},
		&SetSizeReq{Handle: 4, Size: 77},
		&SetSizeResp{Size: 77},
		&ReadReq{Handle: 1, Offset: 8192, Length: 4096},
		&ReadReq{Handle: 1, Offset: 8192, Length: 4096, Tenant: "app-a"},
		&ReadResp{Data: []byte{9, 9, 9}, EOF: true},
		&WriteReq{Handle: 1, Offset: 0, Data: []byte("payload")},
		&WriteReq{Handle: 1, Offset: 0, Data: []byte("payload"), Tenant: "app-a"},
		&WriteResp{N: 7},
		&TruncReq{Handle: 5, Size: 10, Remove: true},
		&TruncReq{Handle: 5, Size: 10, Remove: true, Tenant: "app-a"},
		&TruncResp{},
		&ActiveReadReq{RequestID: 11, Handle: 2, Offset: 64, Length: 1 << 20,
			Op: "sum8", Params: []byte{1}, ResumeState: []byte{2, 3}, TraceID: 0xCAFE0001},
		&ActiveReadReq{RequestID: 11, Handle: 2, Offset: 64, Length: 1 << 20,
			Op: "sum8", Params: []byte{1}, ResumeState: []byte{2, 3}, TraceID: 0xCAFE0001,
			Tenant: "app-a"},
		&ActiveReadResp{RequestID: 11, Disposition: ActiveInterrupted,
			Result: []byte{4}, State: []byte{5, 6}, Processed: 512, TraceID: 0xCAFE0001},
		&ProbeReq{},
		&ProbeResp{QueueLen: 3, ActiveQueueLen: 2, BusyCores: 1.5, TotalCores: 2,
			MemUsed: 100, MemTotal: 1000, BytesQueued: 4096},
		&CancelReq{RequestID: 11, TraceID: 0xCAFE0001},
		&CancelResp{Found: true},
		&TransformReq{RequestID: 12, SrcHandle: 2, Offset: 64, Length: 1 << 20,
			Op: "gaussian2d", Params: []byte{7}, DstHandle: 3, DstOffset: 64, TraceID: 0xCAFE0002},
		&TransformReq{RequestID: 12, SrcHandle: 2, Offset: 64, Length: 1 << 20,
			Op: "gaussian2d", Params: []byte{7}, DstHandle: 3, DstOffset: 64, TraceID: 0xCAFE0002,
			Tenant: "app-a"},
		&TransformResp{RequestID: 12, Written: 1 << 20},
		&LocalSizeReq{Handle: 9},
		&LocalSizeResp{Size: 1 << 30},
		&InspectReq{Kind: "decisions", Args: []byte(`{"limit":32,"trace_id":51966}`)},
		&InspectResp{Node: "data-0", Role: "data",
			Body: []byte(`{"records":[{"seq":1,"solver":"maxgain"}],"dropped":6}`)},
	}
	seen := make(map[MsgType]bool)
	for _, m := range msgs {
		got := roundTrip(t, m)
		if !reflect.DeepEqual(normalise(got), normalise(m)) {
			t.Errorf("%v: round trip mismatch:\n got %#v\nwant %#v", m.Type(), got, m)
		}
		seen[m.Type()] = true
	}
	// Every registered message type must be covered above, so new
	// messages cannot ship without a round-trip test.
	for tt := MsgType(1); tt < msgSentinel; tt++ {
		if tt.Valid() && !seen[tt] {
			t.Errorf("message type %v has no round-trip coverage", tt)
		}
	}
}

// Frames written by peers that predate a trailing optional field must
// still decode, with that field defaulting to zero. Each such field is
// always the final 8 encoded bytes of its message, so an old-format frame
// is the new-format frame truncated by 8 with its length prefix reduced
// to match.
func TestOldFormatFramesDecode(t *testing.T) {
	cases := []struct {
		m     Message
		field string // the trailing optional field old peers omit
	}{
		{&ActiveReadReq{RequestID: 11, Handle: 2, Offset: 64, Length: 1 << 20,
			Op: "sum8", Params: []byte{1}, ResumeState: []byte{2, 3}, TraceID: 0xCAFE}, "TraceID"},
		{&ActiveReadResp{RequestID: 11, Disposition: ActiveDone,
			Result: []byte{4}, Processed: 512, TraceID: 0xCAFE}, "TraceID"},
		{&CancelReq{RequestID: 11, TraceID: 0xCAFE}, "TraceID"},
		{&TransformReq{RequestID: 12, SrcHandle: 2, Offset: 64, Length: 1 << 20,
			Op: "gaussian2d", Params: []byte{7}, DstHandle: 3, DstOffset: 64, TraceID: 0xCAFE}, "TraceID"},
	}
	for _, tc := range cases {
		m := tc.m
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatalf("WriteMessage(%v): %v", m.Type(), err)
		}
		raw := buf.Bytes()
		old := append([]byte(nil), raw[:len(raw)-8]...)
		binary.LittleEndian.PutUint32(old[0:4], uint32(len(old)-4))
		got, err := ReadMessage(bytes.NewReader(old))
		if err != nil {
			t.Fatalf("%v: old-format frame rejected: %v", m.Type(), err)
		}
		// Old peers never sent the trailing field, so decode yields zero.
		f := reflect.ValueOf(m).Elem().FieldByName(tc.field)
		f.Set(reflect.Zero(f.Type()))
		if !reflect.DeepEqual(normalise(got), normalise(m)) {
			t.Errorf("%v: old-format decode mismatch:\n got %#v\nwant %#v", m.Type(), got, m)
		}
	}
}

// normalise maps nil and empty slices to a canonical form so DeepEqual
// compares semantic content (the codec does not distinguish them).
func normalise(m Message) Message {
	v := reflect.ValueOf(m).Elem()
	normaliseValue(v)
	return m
}

func normaliseValue(v reflect.Value) {
	switch v.Kind() {
	case reflect.Slice:
		if v.Len() == 0 && !v.IsNil() {
			v.Set(reflect.Zero(v.Type()))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			normaliseValue(v.Field(i))
		}
	}
}

func TestReadMessageRejectsHugeFrame(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0})
	if _, err := ReadMessage(&buf); err != ErrFrameTooLarge {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadMessageRejectsUnknownType(t *testing.T) {
	var buf bytes.Buffer
	// length=2 (type only), type=9999
	buf.Write([]byte{2, 0, 0, 0, 0x0F, 0x27})
	_, err := ReadMessage(&buf)
	if err == nil {
		t.Fatal("expected error for unknown message type")
	}
}

func TestReadMessageTruncatedPayload(t *testing.T) {
	var full bytes.Buffer
	if err := WriteMessage(&full, &OpenReq{Name: "abcdef"}); err != nil {
		t.Fatal(err)
	}
	raw := full.Bytes()
	if _, err := ReadMessage(bytes.NewReader(raw[:len(raw)-2])); err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
}

func TestReadMessageTrailingBytes(t *testing.T) {
	// Hand-build a Ping frame with 2 extra payload bytes.
	var e Encoder
	e.buf = make([]byte, 6)
	e.PutU64(1)
	e.PutU16(0xABCD) // trailing garbage
	raw := e.Bytes()
	raw[0] = byte(len(raw) - 4)
	raw[4] = byte(MsgPing)
	if _, err := ReadMessage(bytes.NewReader(raw)); err != ErrTrailingBytes {
		t.Fatalf("err = %v, want ErrTrailingBytes", err)
	}
}

func TestMsgTypeString(t *testing.T) {
	if MsgOpenReq.String() != "open.req" {
		t.Errorf("MsgOpenReq.String() = %q", MsgOpenReq.String())
	}
	if MsgType(9999).String() == "" {
		t.Error("unknown type should still render")
	}
	if MsgInvalid.Valid() || !MsgPing.Valid() || msgSentinel.Valid() {
		t.Error("Valid() boundaries wrong")
	}
}

// tenantCases enumerates every request envelope carrying the appended
// tenant field, with the field set.
func tenantCases() []Message {
	return []Message{
		&ReadReq{Handle: 1, Offset: 8192, Length: 4096, Tenant: "app-a"},
		&WriteReq{Handle: 1, Offset: 64, Data: []byte("payload"), Tenant: "app-a"},
		&TruncReq{Handle: 5, Size: 10, Remove: true, Tenant: "app-a"},
		&ActiveReadReq{RequestID: 11, Handle: 2, Offset: 64, Length: 1 << 20,
			Op: "sum8", Params: []byte{1}, TraceID: 0xCAFE, Tenant: "app-a"},
		&TransformReq{RequestID: 12, SrcHandle: 2, Offset: 64, Length: 1 << 20,
			Op: "gaussian2d", Params: []byte{7}, DstHandle: 3, DstOffset: 64,
			TraceID: 0xCAFE, Tenant: "app-a"},
	}
}

// clearTenant zeroes a message's Tenant field and returns it.
func clearTenant(m Message) Message {
	reflect.ValueOf(m).Elem().FieldByName("Tenant").SetString("")
	return m
}

// Tenant-aware servers must decode pre-tenant clients' frames (tenant
// defaults to ""), and tenant-aware clients speaking for the default
// tenant must emit frames pre-tenant servers accept — which the codec
// guarantees by emitting the old format byte-for-byte when Tenant is
// empty, since a pre-tenant decoder rejects any trailing bytes.
func TestTenantFieldOldPeerInterop(t *testing.T) {
	for _, m := range tenantCases() {
		tenant := reflect.ValueOf(m).Elem().FieldByName("Tenant").String()
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatalf("WriteMessage(%v): %v", m.Type(), err)
		}
		raw := buf.Bytes()
		// Direction 1: a pre-tenant client's frame is the new frame minus
		// the appended field (u32 length prefix + bytes); it must decode
		// with Tenant left empty.
		cut := 4 + len(tenant)
		old := append([]byte(nil), raw[:len(raw)-cut]...)
		binary.LittleEndian.PutUint32(old[0:4], uint32(len(old)-4))
		got, err := ReadMessage(bytes.NewReader(old))
		if err != nil {
			t.Fatalf("%v: pre-tenant frame rejected: %v", m.Type(), err)
		}
		if !reflect.DeepEqual(normalise(got), normalise(clearTenant(m))) {
			t.Errorf("%v: pre-tenant decode mismatch:\n got %#v\nwant %#v", m.Type(), got, m)
		}
		// Direction 2: the same message from a default-tenant client
		// encodes byte-identically to the pre-tenant frame, so a
		// pre-tenant server (which rejects trailing bytes) accepts it.
		var defBuf bytes.Buffer
		if err := WriteMessage(&defBuf, m); err != nil { // m's Tenant now ""
			t.Fatal(err)
		}
		if !bytes.Equal(defBuf.Bytes(), old) {
			t.Errorf("%v: default-tenant frame differs from pre-tenant format (%d vs %d bytes)",
				m.Type(), defBuf.Len(), len(old))
		}
	}
}

// The same interop property must hold through the multiplexed framing:
// a tenant-stamped message reassembles with its tenant, and a
// default-tenant message reassembles to a payload byte-identical to the
// pre-tenant encoding.
func TestTenantFieldMuxFraming(t *testing.T) {
	pr, pw := io.Pipe()
	mw := NewMuxWriter(pw, MinMuxSegment)
	mr := NewMuxReader(pr)
	defer mr.Close()

	msgs := tenantCases()
	var wg sync.WaitGroup
	for i, m := range msgs {
		wg.Add(1)
		go func(stream uint32, m Message) {
			defer wg.Done()
			if err := mw.Enqueue(m, stream, nil); err != nil {
				t.Errorf("enqueue %d: %v", stream, err)
			}
		}(uint32(i+1), m)
	}
	got := make(map[uint32]Message)
	for range msgs {
		f, err := mr.Read()
		if err != nil {
			t.Fatalf("mux read: %v", err)
		}
		Own(f.Msg)
		PutBuf(f.Buf)
		got[f.Stream] = f.Msg
	}
	wg.Wait()
	mw.Close()
	pw.Close()
	for i, m := range msgs {
		g := got[uint32(i+1)]
		if g == nil {
			t.Fatalf("stream %d never arrived", i+1)
		}
		if !reflect.DeepEqual(normalise(g), normalise(m)) {
			t.Errorf("%v: mux round trip mismatch:\n got %#v\nwant %#v", m.Type(), g, m)
		}
		// Empty tenant encodes the pre-tenant payload through this
		// framing too.
		var withTenant, without Encoder
		m.Encode(&withTenant)
		tenant := reflect.ValueOf(m).Elem().FieldByName("Tenant").String()
		clearTenant(m).Encode(&without)
		if len(withTenant.Bytes())-len(without.Bytes()) != 4+len(tenant) {
			t.Errorf("%v: empty tenant did not shrink payload to the pre-tenant format", m.Type())
		}
	}
}

// TestInspectCodecQuick property-checks the inspect pair over arbitrary
// field values, including Args and Body payloads that are not valid
// JSON: the codec is payload-agnostic, and argument validation belongs
// to the serving node's provider.
func TestInspectCodecQuick(t *testing.T) {
	f := func(kind, node, role string, args, body []byte) bool {
		req := roundTrip(t, &InspectReq{Kind: kind, Args: args}).(*InspectReq)
		if req.Kind != kind || !bytes.Equal(req.Args, args) {
			return false
		}
		resp := roundTrip(t, &InspectResp{Node: node, Role: role, Body: body}).(*InspectResp)
		return resp.Node == node && resp.Role == role && bytes.Equal(resp.Body, body)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The numeric message codes are the wire format: this pins every
// surviving code and checks that every retired number decodes as an
// unknown type rather than as whatever now sits there.
func TestMsgTypeNumbersPinned(t *testing.T) {
	want := map[MsgType]uint16{
		MsgError: 1, MsgPing: 2, MsgPong: 3,
		MsgCreateReq: 4, MsgCreateResp: 5, MsgOpenReq: 6, MsgOpenResp: 7,
		MsgStatReq: 8, MsgStatResp: 9, MsgRemoveReq: 10, MsgRemoveResp: 11,
		MsgListReq: 12, MsgListResp: 13, MsgSetSizeReq: 14, MsgSetSizeResp: 15,
		MsgReadReq: 16, MsgReadResp: 17, MsgWriteReq: 18, MsgWriteResp: 19,
		MsgTruncReq: 20, MsgTruncResp: 21,
		MsgActiveReadReq: 22, MsgActiveReadResp: 23, MsgProbeReq: 24, MsgProbeResp: 25,
		MsgCancelReq: 26, MsgCancelResp: 27, MsgTransformReq: 28, MsgTransformResp: 29,
		MsgLocalSizeReq: 30, MsgLocalSizeResp: 31,
		MsgInspectReq: 52, MsgInspectResp: 53,
	}
	for mt, n := range want {
		if uint16(mt) != n {
			t.Errorf("%v = %d, want %d", mt, uint16(mt), n)
		}
	}
	live := 0
	for n := uint16(1); n < uint16(msgSentinel); n++ {
		if MsgType(n).Valid() {
			live++
		}
	}
	if live != len(want) {
		t.Errorf("%d live message types, %d pinned: pin the new one", live, len(want))
	}
	for n := uint16(32); n <= 51; n++ {
		frame := []byte{2, 0, 0, 0, byte(n), byte(n >> 8)}
		if _, err := ReadMessage(bytes.NewReader(frame)); !errors.Is(err, ErrUnknownType) {
			t.Errorf("retired type %d: err = %v, want ErrUnknownType", n, err)
		}
	}
}
