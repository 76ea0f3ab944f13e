// Package wire implements the binary message protocol spoken between DOSAS
// clients, metadata servers, and storage servers.
//
// Every message travels in a frame:
//
//	+----------+----------+--------------------+
//	| len u32  | type u16 | payload (len-2) B  |
//	+----------+----------+--------------------+
//
// where len counts the type field plus the payload. Payloads are encoded
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
	"net"
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
	// pair. They stay reserved: a frame carrying one fails to decode as
	// an unknown type.

	// Connection-mode negotiation: upgrade to multiplexed framing (mux.go).
	MsgHelloReq  MsgType = 42
	MsgHelloResp MsgType = 43

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
	MsgHelloReq:       "hello.req",
	MsgHelloResp:      "hello.resp",
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

// WriteOptions selects how WriteMessageOpts moves a bulk body.
type WriteOptions struct {
	// Stats, when non-nil, counts sendfile/writev/copied bytes for the
	// frames written with these options.
	Stats *FrameStats
	// Plain disables the by-reference fast paths: every frame is
	// materialized in the encode buffer and written contiguously,
	// exactly as WriteMessage always did (A/B benchmarking, and a
	// belt-and-braces escape hatch).
	Plain bool
}

// WriteMessage encodes m into a frame and writes it to w. The frame is
// built in a pooled buffer that is recycled before returning, so w must
// not retain the slice passed to Write (the io.Writer contract).
func WriteMessage(w io.Writer, m Message) error {
	return WriteMessageOpts(w, m, WriteOptions{})
}

// WriteMessageOpts is WriteMessage with a by-reference fast path for
// bulk bodies (payloadCarrier messages): a by-reference Payload is
// streamed between the encoded frame head and tail — sendfile(2) on TCP,
// a pooled staging copy elsewhere — and a memory-backed body of at least
// vectoredMin bytes is coalesced with its head and tail in one vectored
// write (net.Buffers), skipping the encode copy. Either way the bytes on
// the wire are identical to the classic framing, so the receiving side
// is unchanged. Errors after the frame head has been written leave the
// connection mid-frame and must be treated as fatal by the caller (they
// already are: both framings drop the connection on write errors).
func WriteMessageOpts(w io.Writer, m Message, o WriteOptions) error {
	var carrier payloadCarrier
	if pc, ok := m.(payloadCarrier); ok {
		data, p := pc.bulkRef()
		if !o.Plain && (p != nil || len(data) >= vectoredMin) {
			return writeCarrierFrame(w, pc, data, p, o.Stats)
		}
		carrier = pc
	}
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
	if carrier != nil {
		// The bulk body was staged through the encode buffer.
		data, p := carrier.bulkRef()
		if p != nil {
			o.Stats.addCopied(p.Len())
		} else {
			o.Stats.addCopied(int64(len(data)))
		}
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

// writeCarrierFrame writes one frame whose bulk body travels by
// reference. The head (frame header + everything before the body) and
// tail (everything after) are encoded into one small pooled buffer.
func writeCarrierFrame(w io.Writer, pc payloadCarrier, data []byte, p Payload, st *FrameStats) error {
	var body int64
	if p != nil {
		body = p.Len()
	} else {
		body = int64(len(data))
	}
	var e Encoder
	e.buf = GetBuf(64)[:6]
	pc.encodePre(&e, int(body))
	pre := len(e.buf)
	pc.encodePost(&e)
	if e.err != nil {
		PutBuf(e.buf)
		return e.err
	}
	n := int64(len(e.buf)-4) + body
	if n > MaxFrameSize {
		PutBuf(e.buf)
		return ErrFrameTooLarge
	}
	binary.LittleEndian.PutUint32(e.buf[0:4], uint32(n))
	binary.LittleEndian.PutUint16(e.buf[4:6], uint16(pc.Type()))
	head, tail := e.buf[:pre], e.buf[pre:]
	flag := cancelFlagOf(pc)
	var err error
	if p != nil {
		if _, err = w.Write(head); err == nil {
			// Stream the body in bounded slices, polling the cancel flag
			// between them: a withdrawn read stops hitting the store and
			// zero-fills the rest of the frame (its length is committed).
			for off := int64(0); off < body && err == nil; {
				if cancelled(flag) {
					st.addCancelled(body - off)
					err = writeZeros(w, body-off, st)
					break
				}
				k := min(body-off, carrierSegment)
				err = p.WriteRange(w, off, k, st)
				off += k
			}
		}
		if err == nil && len(tail) > 0 {
			_, err = w.Write(tail)
		}
	} else if cancelled(flag) {
		// Memory-backed body already cancelled: the bytes are in hand, but
		// zero-fill anyway so the receiver can never act on a withdrawn
		// read's data and accounting sees the cancellation.
		st.addCancelled(body)
		if _, err = w.Write(head); err == nil {
			err = writeZeros(w, body, st)
		}
		if err == nil && len(tail) > 0 {
			_, err = w.Write(tail)
		}
	} else {
		bufs := net.Buffers{head, data}
		if len(tail) > 0 {
			bufs = append(bufs, tail)
		}
		_, err = bufs.WriteTo(w)
		st.addWritev(1)
	}
	PutBuf(e.buf)
	return err
}

// carrierSegment bounds how many body bytes the ordered framing moves
// between cancel-flag polls — the mux framing's segment granularity,
// applied to the contiguous path.
const carrierSegment int64 = 256 << 10

// ReadMessage reads one frame from r and decodes it into a freshly
// allocated message of the announced type. The fast path uses a
// FrameReader instead, which recycles its payload buffer across frames.
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

// FrameReader decodes frames from one connection, reusing a single pooled
// payload buffer across frames. Byte-slice fields of a returned message
// (ReadResp.Data, WriteReq.Data, ActiveReadReq.Params, ...) may alias
// that buffer and are valid only until the next Read on the same reader;
// callers that retain a message across frames must call Own on it first.
// A FrameReader is not safe for concurrent use.
type FrameReader struct {
	r   io.Reader
	buf []byte // pooled; grown on demand, released by Close
}

// NewFrameReader returns a reader decoding frames from r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r}
}

// Read decodes the next frame. See the type comment for the lifetime of
// the returned message's byte fields.
func (fr *FrameReader) Read() (Message, error) {
	var hdr [6]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
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
	need := int(n - 2)
	if cap(fr.buf) < need {
		if fr.buf != nil {
			PutBuf(fr.buf)
		}
		fr.buf = GetBuf(need)
	}
	payload := fr.buf[:need]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return nil, err
	}
	return decodeFrame(t, payload)
}

// Close releases the reader's pooled buffer. The reader must not be used
// afterwards, and no message previously returned by Read may still be in
// use un-Owned.
func (fr *FrameReader) Close() {
	if fr.buf != nil {
		PutBuf(fr.buf)
		fr.buf = nil
	}
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
	case MsgHelloReq:
		return new(HelloReq)
	case MsgHelloResp:
		return new(HelloResp)
	case MsgInspectReq:
		return new(InspectReq)
	case MsgInspectResp:
		return new(InspectResp)
	default:
		return nil
	}
}
