package wire

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: feeding arbitrary bytes to the frame reader never panics —
// it returns an error or a valid message. This is the server's first line
// of defence against malformed or hostile peers.
func TestReadMessageNeverPanicsOnGarbage(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		raw := make([]byte, int(n)%4096)
		rng.Read(raw)
		_, err := ReadMessage(bytes.NewReader(raw))
		_ = err // either outcome is fine; surviving is the property
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: a valid frame with its payload randomly corrupted never
// panics the decoder, and truncated payload bytes are reported as errors
// rather than producing trailing-garbage acceptance.
func TestReadMessageSurvivesCorruptedFrames(t *testing.T) {
	f := func(seed int64, flips uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		msgs := []Message{
			&ActiveReadReq{
				RequestID: rng.Uint64(),
				Handle:    rng.Uint64(),
				Offset:    rng.Uint64(),
				Length:    rng.Uint64(),
				Op:        "gaussian2d",
				Params:    []byte{1, 2, 3},
				TraceID:   rng.Uint64(),
			},
			&InspectReq{Kind: "trace", Args: []byte(`{"trace_id":7}`)},
			&InspectResp{Node: "data-0", Role: "data",
				Body: []byte(`{"events":[{"seq":1,"kind":"arrive"}],"dropped":3}`)},
		}
		for _, msg := range msgs {
			var buf bytes.Buffer
			if err := WriteMessage(&buf, msg); err != nil {
				return false
			}
			raw := buf.Bytes()
			// Corrupt 1..8 bytes of the payload region (not the length
			// prefix, which would just change how much we read).
			for i := 0; i < int(flips)%8+1; i++ {
				pos := 6 + rng.Intn(len(raw)-6)
				raw[pos] ^= byte(1 << rng.Intn(8))
			}
			_, err := ReadMessage(bytes.NewReader(raw))
			_ = err
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// A frame whose inner length prefixes overrun the payload must error, not
// over-read or allocate absurdly.
func TestDecoderInnerLengthOverrun(t *testing.T) {
	// Hand-craft an OpenReq whose string length claims 1 GB.
	payload := make([]byte, 4)
	binary.LittleEndian.PutUint32(payload, 1<<30)
	frame := make([]byte, 6+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(2+len(payload)))
	binary.LittleEndian.PutUint16(frame[4:6], uint16(MsgOpenReq))
	copy(frame[6:], payload)
	if _, err := ReadMessage(bytes.NewReader(frame)); err == nil {
		t.Fatal("oversized inner length accepted")
	}
}

// Property: the pooled FrameReader survives arbitrary garbage exactly
// like ReadMessage does — no panic, no buffer-state corruption that
// poisons later reads. After the garbage, a valid frame on a fresh
// reader must still decode (the pool saw no torn buffers).
func TestFrameReaderNeverPanicsOnGarbage(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		raw := make([]byte, int(n)%4096)
		rng.Read(raw)
		fr := NewFrameReader(bytes.NewReader(raw))
		for {
			if _, err := fr.Read(); err != nil {
				break // any error path is fine; surviving is the property
			}
		}
		fr.Close()
		var buf bytes.Buffer
		if err := WriteMessage(&buf, &ReadReq{Handle: 1, Length: 64}); err != nil {
			return false
		}
		fr2 := NewFrameReader(&buf)
		defer fr2.Close()
		m, err := fr2.Read()
		if err != nil {
			return false
		}
		rr, ok := m.(*ReadReq)
		return ok && rr.Handle == 1 && rr.Length == 64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: random well-formed messages round-trip byte-exactly through
// the pooled encode path and a FrameReader that is reused across many
// frames of different sizes (forcing buffer growth and pool churn).
func TestFrameReaderPooledRoundTripFuzz(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var stream bytes.Buffer
		var sent []Message
		for i := 0; i < 16; i++ {
			data := make([]byte, rng.Intn(8192))
			rng.Read(data)
			var m Message
			switch rng.Intn(3) {
			case 0:
				m = &ReadResp{Data: data, EOF: rng.Intn(2) == 0}
			case 1:
				m = &WriteReq{Handle: rng.Uint64(), Offset: rng.Uint64(), Data: data}
			default:
				m = &ActiveReadResp{RequestID: rng.Uint64(), Result: data}
			}
			if err := WriteMessage(&stream, m); err != nil {
				return false
			}
			sent = append(sent, m)
		}
		fr := NewFrameReader(&stream)
		defer fr.Close()
		for _, want := range sent {
			got, err := fr.Read()
			if err != nil {
				return false
			}
			var wb, gb bytes.Buffer
			if err := WriteMessage(&wb, want); err != nil {
				return false
			}
			if err := WriteMessage(&gb, got); err != nil {
				return false
			}
			if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWriteMessageSmall(b *testing.B) {
	msg := &ReadReq{Handle: 1, Offset: 1 << 20, Length: 65536}
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteMessage(&buf, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMessageRoundTripBulk(b *testing.B) {
	data := make([]byte, 1<<20)
	msg := &ReadResp{Data: data, EOF: false}
	var buf bytes.Buffer
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteMessage(&buf, msg); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadMessage(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeActiveReadReq(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &ActiveReadReq{
		RequestID: 1, Handle: 2, Offset: 3, Length: 4,
		Op: "gaussian2d", Params: []byte{1, 2, 3, 4},
	}); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ReadMessage(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}
