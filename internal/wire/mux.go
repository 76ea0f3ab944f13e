package wire

// Multiplexed framing: the post-handshake connection mode negotiated by
// HelloReq/HelloResp (messages.go). The classic framing in wire.go is one
// strictly ordered exchange at a time, so a 4 MB ReadResp stalls every
// control message queued behind it. Mux framing tags every frame with a
// stream ID and a priority class, segments bulk payloads into small
// sub-frames, and lets a writer interleave control frames between the
// segments of an in-flight bulk message — the BMI/HTTP/2 shape.
//
// Mux frame layout (little-endian, after both sides commit to mux):
//
//	len     u32  // counts everything after itself: type..payload
//	type    u16  // MsgType of the (whole, reassembled) message
//	stream  u32  // correlates segments and matches responses to requests
//	class   u8   // ClassControl or ClassBulk; receiver-advisory
//	flags   u8   // FlagMore: another segment of this stream's message follows
//	payload []byte
//
// A message is the concatenation of its segments' payloads in arrival
// order; segments of distinct streams interleave freely, segments of one
// stream never reorder (single writer per direction). The reassembled
// payload decodes exactly like a classic frame body.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// MuxVersion is the highest mux protocol version this build speaks.
const MuxVersion = 1

// Segment sizing. DefaultMuxSegment bounds how long a control frame can
// be stuck behind an already-started bulk write: 256 KiB is ~30 µs on a
// 10 GbE link and ~4 ms on the 64 MB/s shaped links the benches use.
const (
	DefaultMuxSegment = 256 << 10
	MinMuxSegment     = 4 << 10
)

// Priority classes. Control frames always jump the writer's queue; bulk
// frames share the link in FIFO order, one segment at a time.
const (
	ClassControl uint8 = 0
	ClassBulk    uint8 = 1
)

// FlagMore marks a non-final segment.
const FlagMore uint8 = 1 << 0

const (
	muxHdrSize  = 12 // len + type + stream + class + flags
	muxOverhead = 8  // bytes counted by len besides the payload

	// maxMuxAssembling bounds concurrently half-received streams per
	// connection; beyond it the peer is abusing the protocol.
	maxMuxAssembling = 1024
)

// ErrMuxClosed is returned by Enqueue after Close.
var ErrMuxClosed = errors.New("wire: mux writer closed")

// ClassOf maps a message type to its wire priority class: stripe-transfer
// carriers are bulk, everything else (Ping, Probe, Cancel, Inspect,
// errors, metadata ops, ...) is control.
func ClassOf(t MsgType) uint8 {
	switch t {
	case MsgReadReq, MsgReadResp, MsgWriteReq, MsgWriteResp,
		MsgActiveReadReq, MsgActiveReadResp, MsgTransformReq, MsgTransformResp:
		return ClassBulk
	}
	return ClassControl
}

// muxFrame is one fully encoded message queued for writing. The payload
// lives at buf[muxHdrSize:]; the header of each segment is written in
// place immediately before that segment's payload bytes (clobbering the
// tail of the previous, already-written segment), so each segment goes
// out as a single contiguous Write with zero copying.
//
// A by-reference frame (p != nil) instead keeps only the encoded head
// and tail in buf — buf[muxHdrSize:muxHdrSize+pre] precedes the body,
// the rest follows it — and streams the body from p segment by segment:
// each segment's header (+ any head/tail overlap) goes out as one
// vectored write, then the body range via the payload's sendfile or
// staging-copy path. The frame's done callback, not finish, owns the
// payload's Close (the data server's PostWrite hook).
type muxFrame struct {
	t      MsgType
	stream uint32
	class  uint8
	buf    []byte // pooled: [muxHdrSize header room][payload or head+tail]
	off    int    // payload bytes already written
	done   func(error)

	// By-reference body (zero-copy read path).
	p    Payload
	pre  int   // head bytes in buf after the header room
	body int64 // p's length, snapshotted at enqueue

	// cancel, when non-nil, is polled between segments: once true the
	// remaining body bytes go out as zeros (a withdrawn hedged read stops
	// consuming store bandwidth while the stream stays well-formed).
	cancel *atomic.Bool
}

// payloadLen returns the frame's logical payload length: the bytes that
// travel inside its segments, after their 12-byte headers.
func (f *muxFrame) payloadLen() int {
	if f.p != nil {
		return len(f.buf) - muxHdrSize + int(f.body)
	}
	return len(f.buf) - muxHdrSize
}

func (f *muxFrame) finish(err error) {
	PutBuf(f.buf)
	f.buf = nil
	if f.done != nil {
		f.done(err)
	}
}

// MuxWriter serializes mux frames onto one connection from many
// goroutines, writing every queued control frame before the next bulk
// segment. Bulk payloads are cut into ≤segment-byte sub-frames so a
// control frame waits at most one segment.
//
// Whoever holds the write token (writing == true) drains the lanes.
// When the link is idle, Enqueue takes the token and writes its own
// frame from the calling goroutine — a queue handoff to the writer
// goroutine costs a scheduler wakeup (tens to hundreds of µs on an
// otherwise idle machine), which would tax every frame of a
// latency-bound pipeline. The writer goroutine only takes over when
// frames actually queue behind each other, i.e. when the link is busy
// and the wakeup is amortized.
type MuxWriter struct {
	w       io.Writer
	segment int

	// DepthHook, if set, observes queue depth: +1 when a frame of class
	// is enqueued, -1 when it finishes (written or failed). OnError, if
	// set, fires once when the writer dies. Both must be set before the
	// first Enqueue and must not block.
	DepthHook func(class uint8, delta int)
	OnError   func(error)

	// Stats, if set before the first Enqueue, counts how bulk bodies
	// moved (sendfile/writev/copied). Plain disables the by-reference
	// payload path: payload-carrying messages are materialized into
	// their frame buffer like any other (A/B benchmarking).
	Stats *FrameStats
	Plain bool

	// scratch holds the segment header of by-reference frames (their
	// buf has no room for in-place clobbering); vecs is the reusable
	// iovec list. Both are touched only by the write-token holder.
	scratch [muxHdrSize]byte
	vecs    net.Buffers

	mu       sync.Mutex
	cond     *sync.Cond
	control  []*muxFrame
	bulk     []*muxFrame
	cur      *muxFrame // bulk frame partially on the wire
	writing  bool      // write token: one goroutine drains at a time
	err      error
	closed   bool
	finished chan struct{}
}

// NewMuxWriter starts the writer goroutine. Close must be called
// eventually or the goroutine leaks.
func NewMuxWriter(w io.Writer, segment int) *MuxWriter {
	if segment < MinMuxSegment {
		segment = MinMuxSegment
	}
	mw := &MuxWriter{w: w, segment: segment, finished: make(chan struct{})}
	mw.vecs = make(net.Buffers, 0, 4)
	mw.cond = sync.NewCond(&mw.mu)
	go mw.loop()
	return mw
}

// Enqueue encodes m and queues it for stream with m's ClassOf priority.
// done (optional) is invoked exactly once — from the writer goroutine,
// or from the enqueueing goroutine when the idle fast path writes the
// frame inline: with nil after the final segment is on the wire, or
// with the failure when the frame cannot be written — including when
// Enqueue itself returns an error. The return value is therefore
// advisory; correctness hangs off done. Enqueue may block for the
// duration of writing this frame (as a plain WriteMessage would), but
// never behind another caller's queued bulk.
func (mw *MuxWriter) Enqueue(m Message, stream uint32, done func(error)) error {
	if pc, ok := m.(payloadCarrier); ok && !mw.Plain {
		data, p := pc.bulkRef()
		if p != nil {
			return mw.enqueueRef(pc, p, stream, done)
		}
		if cancelFlagOf(pc) != nil {
			// Cancellable memory-backed bulk: record the body's offsets so
			// a mid-frame cancel can zero exactly the body bytes.
			return mw.enqueueData(pc, data, stream, done)
		}
	}
	hint := 64
	if s, ok := m.(sizeHinter); ok {
		hint = s.encodedSizeHint() + muxHdrSize
	}
	var e Encoder
	e.buf = GetBuf(hint)[:muxHdrSize]
	m.Encode(&e)
	err := e.err
	if err == nil && len(e.buf)-muxHdrSize+muxOverhead > MaxFrameSize {
		err = ErrFrameTooLarge
	}
	if err != nil {
		PutBuf(e.buf)
		if done != nil {
			done(err)
		}
		return err
	}
	if pc, ok := m.(payloadCarrier); ok {
		// The bulk body was staged through the frame buffer (MemStore
		// reads, and everything in Plain mode).
		data, p := pc.bulkRef()
		if p != nil {
			mw.Stats.addCopied(p.Len())
		} else {
			mw.Stats.addCopied(int64(len(data)))
		}
	}
	f := &muxFrame{t: m.Type(), stream: stream, class: ClassOf(m.Type()), buf: e.buf, done: done,
		cancel: cancelFlagOf(m)}
	return mw.submit(f)
}

// enqueueData queues a memory-backed bulk frame that may be withdrawn
// mid-write. Unlike the generic path, the body's position inside the
// buffer is recorded (pre/body), so writeSegments can zero-fill the
// remaining body bytes on cancellation without clobbering the envelope
// fields around them — the stream must stay decodable.
func (mw *MuxWriter) enqueueData(pc payloadCarrier, data []byte, stream uint32, done func(error)) error {
	var e Encoder
	e.buf = GetBuf(64 + len(data))[:muxHdrSize]
	pc.encodePre(&e, len(data))
	pre := len(e.buf) - muxHdrSize
	e.buf = append(e.buf, data...)
	pc.encodePost(&e)
	err := e.err
	if err == nil && len(e.buf)-muxHdrSize+muxOverhead > MaxFrameSize {
		err = ErrFrameTooLarge
	}
	if err != nil {
		PutBuf(e.buf)
		if done != nil {
			done(err)
		}
		return err
	}
	mw.Stats.addCopied(int64(len(data)))
	f := &muxFrame{t: pc.Type(), stream: stream, class: ClassOf(pc.Type()),
		buf: e.buf, done: done, pre: pre, body: int64(len(data)),
		cancel: cancelFlagOf(pc)}
	return mw.submit(f)
}

// enqueueRef queues a by-reference bulk frame: only the head and tail
// are encoded; the body streams from p at write time.
func (mw *MuxWriter) enqueueRef(pc payloadCarrier, p Payload, stream uint32, done func(error)) error {
	body := p.Len()
	var e Encoder
	e.buf = GetBuf(64)[:muxHdrSize]
	pc.encodePre(&e, int(body))
	pre := len(e.buf) - muxHdrSize
	pc.encodePost(&e)
	err := e.err
	if err == nil && int64(len(e.buf)-muxHdrSize+muxOverhead)+body > MaxFrameSize {
		err = ErrFrameTooLarge
	}
	if err != nil {
		PutBuf(e.buf)
		if done != nil {
			done(err)
		}
		return err
	}
	f := &muxFrame{t: pc.Type(), stream: stream, class: ClassOf(pc.Type()),
		buf: e.buf, done: done, p: p, pre: pre, body: body,
		cancel: cancelFlagOf(pc)}
	return mw.submit(f)
}

// submit queues f and runs the idle fast path or signals the writer
// goroutine, exactly as Enqueue documents.
func (mw *MuxWriter) submit(f *muxFrame) error {
	mw.mu.Lock()
	if mw.err != nil || mw.closed {
		werr := mw.err
		mw.mu.Unlock()
		if werr == nil {
			werr = ErrMuxClosed
		}
		f.finish(werr)
		return werr
	}
	idle := !mw.writing && !mw.hasWorkLocked()
	if f.class == ClassControl {
		mw.control = append(mw.control, f)
	} else {
		mw.bulk = append(mw.bulk, f)
	}
	if mw.DepthHook != nil {
		mw.DepthHook(f.class, +1)
	}
	if !idle {
		// Busy: the current token holder re-checks the lanes before
		// releasing, so the frame is guaranteed a writer. The signal
		// covers the parked writer goroutine.
		mw.cond.Signal()
		mw.mu.Unlock()
		return nil
	}
	// Idle fast path: write f from this goroutine, skipping the wakeup.
	mw.writing = true
	err := mw.drainLocked(f)
	mw.writing = false
	mw.cond.Broadcast()
	mw.mu.Unlock()
	return err
}

// hasWorkLocked reports whether any frame is queued or partially
// written. Caller holds mw.mu.
func (mw *MuxWriter) hasWorkLocked() bool {
	return len(mw.control) > 0 || len(mw.bulk) > 0 || mw.cur != nil
}

// Close flushes already-queued frames, stops the writer goroutine and
// waits for it to exit. Subsequent Enqueues fail with ErrMuxClosed.
func (mw *MuxWriter) Close() error {
	mw.mu.Lock()
	mw.closed = true
	mw.cond.Broadcast()
	mw.mu.Unlock()
	<-mw.finished
	mw.mu.Lock()
	err := mw.err
	mw.mu.Unlock()
	return err
}

func (mw *MuxWriter) loop() {
	defer close(mw.finished)
	mw.mu.Lock()
	defer mw.mu.Unlock()
	for {
		for mw.err == nil && (mw.writing || !mw.hasWorkLocked()) {
			if mw.closed && !mw.writing && !mw.hasWorkLocked() {
				return
			}
			mw.cond.Wait()
		}
		if mw.err != nil {
			return
		}
		mw.writing = true
		mw.drainLocked(nil) //nolint:errcheck // recorded in mw.err
		mw.writing = false
		mw.cond.Broadcast()
	}
}

// drainLocked writes queued frames until no work is eligible or the
// writer dies, draining every queued control frame before each bulk
// segment. With inlineFor == nil (the writer goroutine) it drains
// everything. With inlineFor set (the Enqueue fast path) it writes all
// control frames plus at most that one bulk frame, so an enqueuer is
// never drafted into pushing another caller's bulk backlog; leftover
// bulk is handed to the writer goroutine by the caller's Broadcast.
// Called with mw.mu held and the write token owned; returns with mw.mu
// held. Returns the write error, if any (also recorded in mw.err).
func (mw *MuxWriter) drainLocked(inlineFor *muxFrame) error {
	for mw.err == nil {
		var f *muxFrame
		control := false
		switch {
		case len(mw.control) > 0:
			f = mw.control[0]
			mw.control = mw.control[1:]
			control = true
		case mw.cur != nil:
			f = mw.cur
		case len(mw.bulk) > 0 && (inlineFor == nil || mw.bulk[0] == inlineFor):
			mw.cur = mw.bulk[0]
			mw.bulk = mw.bulk[1:]
			f = mw.cur
		default:
			return nil
		}
		mw.mu.Unlock()

		var full bool
		var err error
		if control {
			// Control frames are small: write all their segments
			// back to back rather than round-tripping the queue.
			full, err = mw.writeSegments(f, -1)
		} else {
			full, err = mw.writeSegments(f, 1)
		}
		if err != nil {
			mw.retire(f, err)
			if !control {
				mw.mu.Lock()
				mw.cur = nil
				mw.mu.Unlock()
			}
			mw.die(err)
			mw.mu.Lock()
			return err
		}
		if full && !control {
			mw.mu.Lock()
			mw.cur = nil
			mw.mu.Unlock()
		}
		if full {
			mw.retire(f, nil)
		}
		mw.mu.Lock()
	}
	return mw.err
}

// writeSegments writes up to maxSegs segments of f (all of them if
// maxSegs < 0). Reports whether the frame is fully written.
func (mw *MuxWriter) writeSegments(f *muxFrame, maxSegs int) (bool, error) {
	total := f.payloadLen()
	for segs := 0; maxSegs < 0 || segs < maxSegs; segs++ {
		n := total - f.off
		var flags uint8
		// Cut at the segment size, but let a final segment run up to 25%
		// over instead of spawning a tiny trailer: payloads just past the
		// boundary (a chunk plus its envelope fields) stay one segment,
		// and the extra control-frame wait is bounded at segment/4 bytes.
		if n > mw.segment+mw.segment/4 {
			n = mw.segment
			flags = FlagMore
		}
		if f.p != nil {
			if err := mw.writeRefSegment(f, n, flags); err != nil {
				return false, err
			}
			f.off += n
			if flags == 0 {
				return true, nil
			}
			continue
		}
		hdr := f.buf[f.off : f.off+muxHdrSize]
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(muxOverhead+n))
		binary.LittleEndian.PutUint16(hdr[4:6], uint16(f.t))
		binary.LittleEndian.PutUint32(hdr[6:10], f.stream)
		hdr[10] = f.class
		hdr[11] = flags
		if cancelled(f.cancel) {
			// Withdrawn mid-frame: the remaining segments still go out (the
			// peer expects them) but the body bytes they carry are zeroed,
			// segment by segment. The envelope fields around the body are
			// left intact so the frame still decodes.
			bs, be := max(f.off, f.pre), min(f.off+n, f.pre+int(f.body))
			if be > bs {
				clear(f.buf[muxHdrSize+bs : muxHdrSize+be])
				mw.Stats.addCancelled(int64(be - bs))
			}
		}
		if _, err := mw.w.Write(f.buf[f.off : f.off+muxHdrSize+n]); err != nil {
			return false, err
		}
		f.off += n
		if flags == 0 {
			return true, nil
		}
	}
	return false, nil
}

// writeRefSegment writes one n-byte segment of a by-reference frame
// starting at logical payload offset f.off. The segment header and any
// head/tail bytes it covers are coalesced into one vectored write; the
// body range streams through the payload (sendfile on TCP, pooled copy
// elsewhere). The caller holds the write token, so scratch and vecs are
// exclusively ours.
func (mw *MuxWriter) writeRefSegment(f *muxFrame, n int, flags uint8) error {
	hdr := mw.scratch[:]
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(muxOverhead+n))
	binary.LittleEndian.PutUint16(hdr[4:6], uint16(f.t))
	binary.LittleEndian.PutUint32(hdr[6:10], f.stream)
	hdr[10] = f.class
	hdr[11] = flags

	off, end := f.off, f.off+n
	bodyEnd := f.pre + int(f.body)
	bufs := append(mw.vecs[:0], hdr)
	if off < f.pre {
		bufs = append(bufs, f.buf[muxHdrSize+off:muxHdrSize+min(end, f.pre)])
	}
	var tail []byte // segment's slice of the post-body bytes
	if end > bodyEnd {
		ts := max(off, bodyEnd) - bodyEnd
		tail = f.buf[muxHdrSize+f.pre+ts : muxHdrSize+f.pre+(end-bodyEnd)]
	}
	bs, be := max(off, f.pre)-f.pre, min(end, bodyEnd)-f.pre
	if be > bs {
		// Flush header (+ head overlap) first, then stream the body.
		if _, err := bufs.WriteTo(mw.w); err != nil {
			return err
		}
		mw.Stats.addWritev(1)
		if cancelled(f.cancel) {
			// Withdrawn mid-frame: the segment's body range goes out as
			// zeros instead of touching the store.
			mw.Stats.addCancelled(int64(be - bs))
			if err := writeZeros(mw.w, int64(be-bs), mw.Stats); err != nil {
				return err
			}
		} else if err := f.p.WriteRange(mw.w, int64(bs), int64(be-bs), mw.Stats); err != nil {
			return err
		}
		if len(tail) > 0 {
			if _, err := mw.w.Write(tail); err != nil {
				return err
			}
		}
		return nil
	}
	if len(tail) > 0 {
		bufs = append(bufs, tail)
	}
	_, err := bufs.WriteTo(mw.w)
	mw.Stats.addWritev(1)
	return err
}

// retire releases f and tells the depth hook it left the queue.
func (mw *MuxWriter) retire(f *muxFrame, err error) {
	if mw.DepthHook != nil {
		mw.DepthHook(f.class, -1)
	}
	f.finish(err)
}

// die records the first write error, fails every queued frame, and fires
// OnError. The writer goroutine exits right after.
func (mw *MuxWriter) die(err error) {
	mw.mu.Lock()
	if mw.err == nil {
		mw.err = err
	}
	control, bulk := mw.control, mw.bulk
	mw.control, mw.bulk, mw.cur = nil, nil, nil
	mw.cond.Broadcast()
	mw.mu.Unlock()
	for _, f := range control {
		mw.retire(f, err)
	}
	for _, f := range bulk {
		mw.retire(f, err)
	}
	if mw.OnError != nil {
		mw.OnError(err)
	}
}

// MuxFrame is one reassembled message delivered by MuxReader.Read. Msg
// may alias Buf (a pooled buffer): the receiver owns Buf and must
// wire.PutBuf it once Msg — or any byte field of it not detached via
// Own — is no longer needed.
type MuxFrame struct {
	Stream uint32
	Class  uint8
	Msg    Message
	Buf    []byte
}

// muxAsm is a stream's partially received message.
type muxAsm struct {
	t     MsgType
	class uint8
	buf   []byte // pooled
}

// MuxReader reassembles mux frames from one connection. Not safe for
// concurrent use (one demux goroutine per connection owns it).
type MuxReader struct {
	r   io.Reader
	asm map[uint32]*muxAsm
}

// NewMuxReader returns a reader decoding mux frames from r.
func NewMuxReader(r io.Reader) *MuxReader {
	return &MuxReader{r: r, asm: make(map[uint32]*muxAsm)}
}

// Read returns the next complete message, transparently reassembling
// segmented streams. See MuxFrame for buffer ownership.
func (mr *MuxReader) Read() (MuxFrame, error) {
	for {
		var hdr [muxHdrSize]byte
		if _, err := io.ReadFull(mr.r, hdr[:]); err != nil {
			return MuxFrame{}, err
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		if n < muxOverhead {
			return MuxFrame{}, ErrShortPayload
		}
		if n > MaxFrameSize {
			return MuxFrame{}, ErrFrameTooLarge
		}
		t := MsgType(binary.LittleEndian.Uint16(hdr[4:6]))
		stream := binary.LittleEndian.Uint32(hdr[6:10])
		class := hdr[10]
		more := hdr[11]&FlagMore != 0
		plen := int(n - muxOverhead)

		a := mr.asm[stream]
		if a == nil {
			// When more segments are coming, draw a buffer a class up so
			// the common two-segment message assembles without a grow-copy.
			hint := plen
			if more {
				hint = 2 * plen
			}
			a = &muxAsm{t: t, class: class, buf: GetBuf(hint)[:0]}
		} else if a.t != t {
			return MuxFrame{}, fmt.Errorf("wire: mux segment type changed mid-stream (%v then %v)", a.t, t)
		}
		need := len(a.buf) + plen
		if need > MaxFrameSize {
			return MuxFrame{}, ErrFrameTooLarge
		}
		if cap(a.buf) < need {
			nb := GetBuf(need)[:len(a.buf)]
			copy(nb, a.buf)
			PutBuf(a.buf)
			a.buf = nb
		}
		if _, err := io.ReadFull(mr.r, a.buf[len(a.buf):need]); err != nil {
			PutBuf(a.buf)
			delete(mr.asm, stream)
			return MuxFrame{}, err
		}
		a.buf = a.buf[:need]

		if more {
			if _, held := mr.asm[stream]; !held {
				if len(mr.asm) >= maxMuxAssembling {
					PutBuf(a.buf)
					return MuxFrame{}, fmt.Errorf("wire: more than %d streams assembling", maxMuxAssembling)
				}
				mr.asm[stream] = a
			}
			continue
		}
		delete(mr.asm, stream)
		msg, err := decodeFrame(a.t, a.buf)
		if err != nil {
			PutBuf(a.buf)
			return MuxFrame{}, err
		}
		return MuxFrame{Stream: stream, Class: a.class, Msg: msg, Buf: a.buf}, nil
	}
}

// Close releases the pooled buffers of any half-assembled streams.
func (mr *MuxReader) Close() {
	for s, a := range mr.asm {
		PutBuf(a.buf)
		delete(mr.asm, s)
	}
}
