package wire

import (
	"bytes"
	"testing"
)

// FuzzMuxReader feeds arbitrary byte streams to the mux reader, which
// parses the first byte of every connection. It must never panic, and
// every message it returns must survive a MuxWriter/MuxReader round trip
// on the same stream ID unchanged. Messages compare by their plain
// WriteMessage encoding, so non-canonical input bytes (a bool byte of 2,
// say) compare by what they decoded to. The seed corpus lives in
// testdata/fuzz/FuzzMuxReader; `make fuzz-wire` explores beyond it.
func FuzzMuxReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream []byte) {
		mr := NewMuxReader(bytes.NewReader(stream))
		defer mr.Close()
		for {
			fr, err := mr.Read()
			if err != nil {
				return // any error ends the connection; surviving is the property
			}
			checkMuxRoundTrip(t, fr)
			PutBuf(fr.Buf)
		}
	})
}

// checkMuxRoundTrip re-sends fr's message through a MuxWriter cut at the
// smallest segment size and reads it back.
func checkMuxRoundTrip(t *testing.T, fr MuxFrame) {
	t.Helper()
	var wireBytes bytes.Buffer
	mw := NewMuxWriter(&wireBytes, MinMuxSegment)
	if err := mw.Enqueue(fr.Msg, fr.Stream, nil); err != nil {
		t.Fatalf("%v on stream %d: re-encode: %v", fr.Msg.Type(), fr.Stream, err)
	}
	if err := mw.Close(); err != nil {
		t.Fatalf("%v: writer: %v", fr.Msg.Type(), err)
	}
	mr := NewMuxReader(&wireBytes)
	defer mr.Close()
	back, err := mr.Read()
	if err != nil {
		t.Fatalf("%v on stream %d: re-read: %v", fr.Msg.Type(), fr.Stream, err)
	}
	defer PutBuf(back.Buf)
	if back.Stream != fr.Stream || back.Msg.Type() != fr.Msg.Type() {
		t.Fatalf("round trip moved %v on stream %d to %v on stream %d",
			fr.Msg.Type(), fr.Stream, back.Msg.Type(), back.Stream)
	}
	if want, got := plainEncoding(t, fr.Msg), plainEncoding(t, back.Msg); !bytes.Equal(want, got) {
		t.Fatalf("%v on stream %d changed in the round trip:\n%x\n%x", fr.Msg.Type(), fr.Stream, want, got)
	}
	if _, err := mr.Read(); err == nil {
		t.Fatalf("%v: round trip produced a second message", fr.Msg.Type())
	}
}

func plainEncoding(t *testing.T, m Message) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := WriteMessage(&b, m); err != nil {
		t.Fatalf("%v: %v", m.Type(), err)
	}
	return b.Bytes()
}
