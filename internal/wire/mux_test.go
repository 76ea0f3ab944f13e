package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// pumpWriter hands each Write (one mux segment) to the test over an
// unbuffered channel, so the writer goroutine is blocked until the test
// consumes the segment — deterministic interleaving tests.
type pumpWriter struct {
	segs chan []byte
}

func (w *pumpWriter) Write(p []byte) (int, error) {
	b := make([]byte, len(p))
	copy(b, p)
	w.segs <- b
	return len(p), nil
}

type segInfo struct {
	t      MsgType
	stream uint32
	class  uint8
	more   bool
	plen   int
}

func parseSeg(t *testing.T, b []byte) segInfo {
	t.Helper()
	if len(b) < muxHdrSize {
		t.Fatalf("segment shorter than header: %d bytes", len(b))
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	if int(n)+4 != len(b) {
		t.Fatalf("segment length field %d does not match %d wire bytes", n, len(b))
	}
	return segInfo{
		t:      MsgType(binary.LittleEndian.Uint16(b[4:6])),
		stream: binary.LittleEndian.Uint32(b[6:10]),
		class:  b[10],
		more:   b[11]&FlagMore != 0,
		plen:   len(b) - muxHdrSize,
	}
}

// A bulk message larger than one segment must be cut into ≤segment
// sub-frames, and a control frame enqueued mid-transfer must hit the wire
// before the bulk message's remaining segments.
func TestMuxWriterControlPreemptsBulk(t *testing.T) {
	pw := &pumpWriter{segs: make(chan []byte)}
	mw := NewMuxWriter(pw, MinMuxSegment)
	defer func() {
		go func() { // drain anything left so Close can flush
			for range pw.segs {
			}
		}()
		mw.Close()
		close(pw.segs)
	}()

	// The idle fast path writes inline, so the bulk Enqueue blocks on the
	// pump until the test consumes its segments — run it aside.
	data := bytes.Repeat([]byte{0xAB}, 3*MinMuxSegment)
	bulkErr := make(chan error, 1)
	go func() {
		bulkErr <- mw.Enqueue(&ReadResp{Data: data}, 7, nil)
	}()

	first := parseSeg(t, <-pw.segs) // writer now blocked before segment 2
	if first.t != MsgReadResp || first.stream != 7 || first.class != ClassBulk {
		t.Fatalf("first segment = %+v", first)
	}
	if !first.more || first.plen != MinMuxSegment {
		t.Fatalf("first segment not a full-sized non-final cut: %+v", first)
	}

	if err := mw.Enqueue(&Ping{Seq: 99}, 8, nil); err != nil {
		t.Fatalf("enqueue control: %v", err)
	}

	var order []segInfo
	for {
		s := parseSeg(t, <-pw.segs)
		order = append(order, s)
		if s.stream == 7 && !s.more {
			break
		}
	}
	pingAt, lastBulkAt := -1, -1
	for i, s := range order {
		if s.stream == 8 {
			if s.t != MsgPing || s.class != ClassControl || s.more {
				t.Fatalf("control segment = %+v", s)
			}
			pingAt = i
		}
		if s.stream == 7 && !s.more {
			lastBulkAt = i
		}
	}
	if pingAt == -1 {
		t.Fatal("control frame never written")
	}
	if pingAt >= lastBulkAt {
		t.Fatalf("control frame at %d did not preempt final bulk segment at %d (order %+v)", pingAt, lastBulkAt, order)
	}
	if err := <-bulkErr; err != nil {
		t.Fatalf("enqueue bulk: %v", err)
	}
}

// Everything written by MuxWriter must reassemble byte-identically
// through MuxReader, across interleaved streams and classes.
func TestMuxRoundTrip(t *testing.T) {
	pr, pw := io.Pipe()
	mw := NewMuxWriter(pw, MinMuxSegment)
	mr := NewMuxReader(pr)
	defer mr.Close()

	want := map[uint32]Message{
		1: &ReadResp{Data: bytes.Repeat([]byte{1}, 5*MinMuxSegment+13), EOF: true},
		2: &Ping{Seq: 42},
		3: &WriteReq{Handle: 9, Offset: 4096, Data: bytes.Repeat([]byte{3}, MinMuxSegment)},
		4: &ErrorMsg{Code: StatusInternal, Op: "read", Detail: "boom"},
		5: &ReadResp{Data: nil, EOF: true},
	}
	var wg sync.WaitGroup
	for stream, m := range want {
		wg.Add(1)
		go func(stream uint32, m Message) {
			defer wg.Done()
			if err := mw.Enqueue(m, stream, nil); err != nil {
				t.Errorf("enqueue %d: %v", stream, err)
			}
		}(stream, m)
	}

	got := make(map[uint32]Message)
	for range want {
		f, err := mr.Read()
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if f.Class != ClassOf(f.Msg.Type()) {
			t.Errorf("stream %d: class %d, want %d", f.Stream, f.Class, ClassOf(f.Msg.Type()))
		}
		Own(f.Msg)
		PutBuf(f.Buf)
		got[f.Stream] = f.Msg
	}
	wg.Wait()
	mw.Close()
	pw.Close()

	for stream, m := range want {
		g, ok := got[stream]
		if !ok {
			t.Fatalf("stream %d never arrived", stream)
		}
		var wantBuf, gotBuf Encoder
		m.Encode(&wantBuf)
		g.Encode(&gotBuf)
		if !bytes.Equal(wantBuf.buf, gotBuf.buf) {
			t.Errorf("stream %d: payload mismatch (%d vs %d bytes)", stream, len(gotBuf.buf), len(wantBuf.buf))
		}
	}
}

// A dead connection must fail the in-flight and queued frames exactly
// once each, and fire OnError exactly once.
type failAfterWriter struct {
	n int // successful writes before failing
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("wire gone")
	}
	w.n--
	return len(p), nil
}

func TestMuxWriterFailsPendingOnError(t *testing.T) {
	mw := NewMuxWriter(&failAfterWriter{n: 1}, MinMuxSegment)
	var mu sync.Mutex
	var errs []error
	onErr := 0
	mw.OnError = func(error) { mu.Lock(); onErr++; mu.Unlock() }
	done := func(err error) { mu.Lock(); errs = append(errs, err); mu.Unlock() }

	data := bytes.Repeat([]byte{1}, 4*MinMuxSegment)
	for i := 0; i < 3; i++ {
		mw.Enqueue(&ReadResp{Data: data}, uint32(i+1), done)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(errs)
		mu.Unlock()
		if n == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/3 done callbacks fired", n)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, err := range errs {
		if err == nil {
			t.Errorf("done %d: nil error on dead writer", i)
		}
	}
	if onErr != 1 {
		t.Errorf("OnError fired %d times, want 1", onErr)
	}
	if err := mw.Enqueue(&Ping{Seq: 1}, 9, nil); err == nil {
		t.Error("Enqueue after death succeeded")
	}
}

// Fuzz the envelope itself: any payload, cut into arbitrary segment sizes
// (hand-built frames, not MuxWriter, so cuts smaller than MinMuxSegment
// are covered), must reassemble to the original message.
func TestMuxSegmentationQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(data []byte, seed int64) bool {
		m := &ReadResp{Data: data, EOF: seed&1 == 0}
		var e Encoder
		m.Encode(&e)
		payload := e.buf

		// cut into 1..len random segments
		r := rand.New(rand.NewSource(seed))
		var wireBuf bytes.Buffer
		off := 0
		for {
			rem := len(payload) - off
			n := rem
			more := false
			if rem > 1 && r.Intn(2) == 0 {
				n = 1 + r.Intn(rem)
				if n < rem {
					more = true
				}
			}
			var hdr [muxHdrSize]byte
			binary.LittleEndian.PutUint32(hdr[0:4], uint32(muxOverhead+n))
			binary.LittleEndian.PutUint16(hdr[4:6], uint16(MsgReadResp))
			binary.LittleEndian.PutUint32(hdr[6:10], 77)
			hdr[10] = ClassBulk
			if more {
				hdr[11] = FlagMore
			}
			wireBuf.Write(hdr[:])
			wireBuf.Write(payload[off : off+n])
			off += n
			if !more {
				break
			}
		}

		mr := NewMuxReader(&wireBuf)
		defer mr.Close()
		fr, err := mr.Read()
		if err != nil {
			t.Logf("read: %v", err)
			return false
		}
		defer PutBuf(fr.Buf)
		got, ok := fr.Msg.(*ReadResp)
		if !ok || fr.Stream != 77 {
			return false
		}
		return bytes.Equal(got.Data, data) && got.EOF == m.EOF
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Interleaved segments of distinct streams must reassemble independently.
func TestMuxReaderInterleavedStreams(t *testing.T) {
	a := bytes.Repeat([]byte{0xA}, 300)
	b := bytes.Repeat([]byte{0xB}, 500)
	var ea, eb Encoder
	(&ReadResp{Data: a}).Encode(&ea)
	(&ReadResp{Data: b}).Encode(&eb)

	seg := func(buf *bytes.Buffer, stream uint32, payload []byte, more bool) {
		var hdr [muxHdrSize]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(muxOverhead+len(payload)))
		binary.LittleEndian.PutUint16(hdr[4:6], uint16(MsgReadResp))
		binary.LittleEndian.PutUint32(hdr[6:10], stream)
		hdr[10] = ClassBulk
		if more {
			hdr[11] = FlagMore
		}
		buf.Write(hdr[:])
		buf.Write(payload)
	}
	var wireBuf bytes.Buffer
	seg(&wireBuf, 1, ea.buf[:100], true)
	seg(&wireBuf, 2, eb.buf[:200], true)
	seg(&wireBuf, 1, ea.buf[100:], false)
	seg(&wireBuf, 2, eb.buf[200:], false)

	mr := NewMuxReader(&wireBuf)
	defer mr.Close()
	for i := 0; i < 2; i++ {
		f, err := mr.Read()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		got := f.Msg.(*ReadResp).Data
		want := a
		if f.Stream == 2 {
			want = b
		}
		if !bytes.Equal(got, want) {
			t.Errorf("stream %d: got %d bytes, want %d", f.Stream, len(got), len(want))
		}
		PutBuf(f.Buf)
	}
}

// Garbage bytes must produce an error, never a panic or a hang.
func TestMuxReaderGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(junk []byte) bool {
		mr := NewMuxReader(bytes.NewReader(junk))
		defer mr.Close()
		for {
			_, err := mr.Read()
			if err != nil {
				return true // io errors and protocol errors both fine
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// Mid-stream type changes are a protocol violation.
func TestMuxReaderTypeChangeMidStream(t *testing.T) {
	var wireBuf bytes.Buffer
	write := func(tp MsgType, more bool) {
		var hdr [muxHdrSize]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(muxOverhead+1))
		binary.LittleEndian.PutUint16(hdr[4:6], uint16(tp))
		binary.LittleEndian.PutUint32(hdr[6:10], 5)
		if more {
			hdr[11] = FlagMore
		}
		wireBuf.Write(hdr[:])
		wireBuf.WriteByte(0)
	}
	write(MsgReadResp, true)
	write(MsgWriteResp, false)
	mr := NewMuxReader(&wireBuf)
	defer mr.Close()
	if _, err := mr.Read(); err == nil {
		t.Fatal("type change mid-stream not rejected")
	}
}

// A segment header's length is the peer's claim. The reader must grow
// its buffer only as bytes arrive: a 12-byte header announcing a
// near-MaxFrameSize segment and then hanging up must not cost that much
// memory, while a genuine segment larger than one read step still
// assembles intact.
func TestMuxReaderBoundsAllocationToReceivedBytes(t *testing.T) {
	hdr := func(n int, more bool) []byte {
		var h [muxHdrSize]byte
		binary.LittleEndian.PutUint32(h[0:4], uint32(muxOverhead+n))
		binary.LittleEndian.PutUint16(h[4:6], uint16(MsgReadResp))
		binary.LittleEndian.PutUint32(h[6:10], 1)
		h[10] = ClassBulk
		if more {
			h[11] = FlagMore
		}
		return h[:]
	}
	lie := append(hdr(MaxFrameSize-muxOverhead, true), 1, 2, 3)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 4; i++ {
		mr := NewMuxReader(bytes.NewReader(lie))
		if _, err := mr.Read(); err == nil {
			t.Fatal("truncated segment decoded")
		}
		mr.Close()
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 4*2*muxReadStep {
		t.Errorf("4 lying headers allocated %d bytes, want <= %d", got, 4*2*muxReadStep)
	}

	var e Encoder
	data := make([]byte, 3*muxReadStep+5)
	rand.New(rand.NewSource(4)).Read(data)
	(&ReadResp{Data: data, EOF: true}).Encode(&e)
	mr := NewMuxReader(bytes.NewReader(append(hdr(len(e.buf), false), e.buf...)))
	defer mr.Close()
	f, err := mr.Read()
	if err != nil {
		t.Fatal(err)
	}
	if rr := f.Msg.(*ReadResp); !bytes.Equal(rr.Data, data) || !rr.EOF {
		t.Fatal("multi-step segment reassembled wrong")
	}
	PutBuf(f.Buf)
}
