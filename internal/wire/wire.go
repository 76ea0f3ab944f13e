// Package wire implements the binary message protocol spoken between DOSAS
// clients, metadata servers, and storage servers.
//
// Every message is a type code plus a payload. On a connection, messages
// travel in the multiplexed framing of mux.go from the first byte on.
// WriteMessage and ReadMessage are the plain single-frame codec,
//
//	+----------+----------+--------------------+
//	| len u32  | type u16 | payload (len-2) B  |
//	+----------+----------+--------------------+
//
// where len counts the type field plus the payload; a mux stream's
// reassembled segments carry exactly that payload. Payloads are encoded
// with the sticky-error Encoder/Decoder in this package: fixed-width
// little-endian integers, length-prefixed byte strings. The format is
// deliberately hand-rolled (no reflection, no gob) so that framing cost is
// predictable on the I/O fast path and so the protocol is
// language-independent, mirroring PVFS2's BMI message conventions.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// MsgType identifies the kind of message carried in a frame.
type MsgType uint16

// Message type codes. The numeric values are part of the wire format;
// append only, never renumber.
const (
	MsgInvalid MsgType = iota

	// Generic control.
	MsgError
	MsgPing
	MsgPong

	// Metadata operations.
	MsgCreateReq
	MsgCreateResp
	MsgOpenReq
	MsgOpenResp
	MsgStatReq
	MsgStatResp
	MsgRemoveReq
	MsgRemoveResp
	MsgListReq
	MsgListResp
	MsgSetSizeReq
	MsgSetSizeResp

	// Data (stripe) operations.
	MsgReadReq
	MsgReadResp
	MsgWriteReq
	MsgWriteResp
	MsgTruncReq
	MsgTruncResp

	// Active storage operations.
	MsgActiveReadReq
	MsgActiveReadResp
	MsgProbeReq
	MsgProbeResp
	MsgCancelReq
	MsgCancelResp

	// Active transform (write-back) operations.
	MsgTransformReq
	MsgTransformResp

	// Local stream inspection (fsck/repair).
	MsgLocalSizeReq
	MsgLocalSizeResp

	// 32–41 and 44–51 were the per-kind observability pairs (Stats,
	// TraceFetch, Health, SeriesFetch, DecisionLog, then EventFetch,
	// AlertFetch, TenantStats, RangeQuery), superseded by the Inspect
	// pair; 42–43 were the Hello pair that negotiated the mux framing
	// before it became the only one. They stay reserved: a frame
	// carrying one fails to decode as an unknown type.

	// Inspect plane: one pair for every kind of observability data a
	// node serves (pfs.Inspector).
	MsgInspectReq  MsgType = 52
	MsgInspectResp MsgType = 53

	msgSentinel MsgType = 54 // keep last
)

var msgNames = map[MsgType]string{
	MsgInvalid:        "invalid",
	MsgError:          "error",
	MsgPing:           "ping",
	MsgPong:           "pong",
	MsgCreateReq:      "create.req",
	MsgCreateResp:     "create.resp",
	MsgOpenReq:        "open.req",
	MsgOpenResp:       "open.resp",
	MsgStatReq:        "stat.req",
	MsgStatResp:       "stat.resp",
	MsgRemoveReq:      "remove.req",
	MsgRemoveResp:     "remove.resp",
	MsgListReq:        "list.req",
	MsgListResp:       "list.resp",
	MsgSetSizeReq:     "setsize.req",
	MsgSetSizeResp:    "setsize.resp",
	MsgReadReq:        "read.req",
	MsgReadResp:       "read.resp",
	MsgWriteReq:       "write.req",
	MsgWriteResp:      "write.resp",
	MsgTruncReq:       "trunc.req",
	MsgTruncResp:      "trunc.resp",
	MsgActiveReadReq:  "activeread.req",
	MsgActiveReadResp: "activeread.resp",
	MsgProbeReq:       "probe.req",
	MsgProbeResp:      "probe.resp",
	MsgCancelReq:      "cancel.req",
	MsgCancelResp:     "cancel.resp",
	MsgTransformReq:   "transform.req",
	MsgTransformResp:  "transform.resp",
	MsgLocalSizeReq:   "localsize.req",
	MsgLocalSizeResp:  "localsize.resp",
	MsgInspectReq:     "inspect.req",
	MsgInspectResp:    "inspect.resp",
}

// String returns a human-readable name for the message type.
func (t MsgType) String() string {
	if s, ok := msgNames[t]; ok {
		return s
	}
	return fmt.Sprintf("msgtype(%d)", uint16(t))
}

// Valid reports whether t is a known message type. Retired numbers
// are not.
func (t MsgType) Valid() bool { return New(t) != nil }

// Message is implemented by every protocol message.
type Message interface {
	// Type returns the wire code for this message.
	Type() MsgType
	// Encode appends the message payload to the encoder.
	Encode(e *Encoder)
	// Decode reads the message payload from the decoder.
	Decode(d *Decoder)
}

// MaxFrameSize bounds a single frame. Stripe transfers are chunked below
// this by the pfs layer; a peer announcing a larger frame is protocol abuse
// and the connection is dropped.
const MaxFrameSize = 64 << 20 // 64 MiB

// Framing errors.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrameSize")
	ErrShortPayload  = errors.New("wire: payload truncated")
	ErrTrailingBytes = errors.New("wire: trailing bytes after payload")
	ErrUnknownType   = errors.New("wire: unknown message type")
)

// sizeHinter lets bulk messages announce an upper bound on their encoded
// size, so WriteMessage can draw a correctly sized pooled buffer instead
// of growing by repeated append.
type sizeHinter interface {
	encodedSizeHint() int
}

// WriteMessage encodes m into a frame and writes it to w. The frame is
// built in a pooled buffer that is recycled before returning, so w must
// not retain the slice passed to Write (the io.Writer contract). A
// by-reference bulk body is materialized into that buffer. This is the
// plain single-frame codec; connections speak the mux framing (mux.go),
// whose segments reassemble into exactly this frame body.
func WriteMessage(w io.Writer, m Message) error {
	hint := 64
	if s, ok := m.(sizeHinter); ok {
		hint = s.encodedSizeHint() + 6
	}
	var e Encoder
	e.buf = GetBuf(hint)[:6] // room for len+type header
	m.Encode(&e)
	if e.err != nil {
		PutBuf(e.buf)
		return e.err
	}
	n := len(e.buf) - 4 // frame length excludes the length field itself
	if n > MaxFrameSize {
		PutBuf(e.buf)
		return ErrFrameTooLarge
	}
	binary.LittleEndian.PutUint32(e.buf[0:4], uint32(n))
	binary.LittleEndian.PutUint16(e.buf[4:6], uint16(m.Type()))
	_, err := w.Write(e.buf)
	PutBuf(e.buf)
	return err
}

// ReadMessage reads one frame from r and decodes it into a freshly
// allocated message of the announced type.
func ReadMessage(r io.Reader) (Message, error) {
	var hdr [6]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n < 2 {
		return nil, ErrShortPayload
	}
	if n > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	t := MsgType(binary.LittleEndian.Uint16(hdr[4:6]))
	payload := make([]byte, n-2)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return decodeFrame(t, payload)
}

func decodeFrame(t MsgType, payload []byte) (Message, error) {
	m := New(t)
	if m == nil {
		return nil, fmt.Errorf("%w: %v", ErrUnknownType, t)
	}
	d := Decoder{buf: payload}
	m.Decode(&d)
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.buf) {
		return nil, ErrTrailingBytes
	}
	return m, nil
}

// Owner is implemented by messages whose decoded byte-slice fields may
// alias a pooled frame buffer. Own copies those fields into private
// memory so the message survives the buffer's reuse.
type Owner interface {
	Own()
}

// Own detaches m from any shared decode buffer and returns it. Messages
// without aliasing fields pass through untouched.
func Own(m Message) Message {
	if o, ok := m.(Owner); ok {
		o.Own()
	}
	return m
}

// detach copies b out of whatever buffer it aliases. Empty slices pass
// through: they carry no bytes to protect.
func detach(b []byte) []byte {
	if len(b) == 0 {
		return b
	}
	return append([]byte(nil), b...)
}

// New returns a zero message of the given type, or nil if t is unknown.
func New(t MsgType) Message {
	switch t {
	case MsgError:
		return new(ErrorMsg)
	case MsgPing:
		return new(Ping)
	case MsgPong:
		return new(Pong)
	case MsgCreateReq:
		return new(CreateReq)
	case MsgCreateResp:
		return new(CreateResp)
	case MsgOpenReq:
		return new(OpenReq)
	case MsgOpenResp:
		return new(OpenResp)
	case MsgStatReq:
		return new(StatReq)
	case MsgStatResp:
		return new(StatResp)
	case MsgRemoveReq:
		return new(RemoveReq)
	case MsgRemoveResp:
		return new(RemoveResp)
	case MsgListReq:
		return new(ListReq)
	case MsgListResp:
		return new(ListResp)
	case MsgSetSizeReq:
		return new(SetSizeReq)
	case MsgSetSizeResp:
		return new(SetSizeResp)
	case MsgReadReq:
		return new(ReadReq)
	case MsgReadResp:
		return new(ReadResp)
	case MsgWriteReq:
		return new(WriteReq)
	case MsgWriteResp:
		return new(WriteResp)
	case MsgTruncReq:
		return new(TruncReq)
	case MsgTruncResp:
		return new(TruncResp)
	case MsgActiveReadReq:
		return new(ActiveReadReq)
	case MsgActiveReadResp:
		return new(ActiveReadResp)
	case MsgProbeReq:
		return new(ProbeReq)
	case MsgProbeResp:
		return new(ProbeResp)
	case MsgCancelReq:
		return new(CancelReq)
	case MsgCancelResp:
		return new(CancelResp)
	case MsgTransformReq:
		return new(TransformReq)
	case MsgTransformResp:
		return new(TransformResp)
	case MsgLocalSizeReq:
		return new(LocalSizeReq)
	case MsgLocalSizeResp:
		return new(LocalSizeResp)
	case MsgInspectReq:
		return new(InspectReq)
	case MsgInspectResp:
		return new(InspectResp)
	default:
		return nil
	}
}
