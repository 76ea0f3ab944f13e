package wire

import "sync/atomic"

// Status codes carried by ErrorMsg. These travel on the wire; append only.
const (
	StatusOK uint32 = iota
	StatusNotFound
	StatusExists
	StatusInvalid
	StatusOverloaded
	StatusInternal
	StatusUnsupported
	StatusCancelled
)

// ErrorMsg is the generic failure response for any request.
type ErrorMsg struct {
	Code   uint32 // one of the Status* codes
	Op     string // the operation that failed, e.g. "open"
	Detail string // human-readable context
}

func (*ErrorMsg) Type() MsgType { return MsgError }

func (m *ErrorMsg) Encode(e *Encoder) {
	e.PutU32(m.Code)
	e.PutString(m.Op)
	e.PutString(m.Detail)
}

func (m *ErrorMsg) Decode(d *Decoder) {
	m.Code = d.U32()
	m.Op = d.String()
	m.Detail = d.String()
}

// Ping is a liveness probe; the peer answers with Pong echoing Seq.
type Ping struct{ Seq uint64 }

func (*Ping) Type() MsgType       { return MsgPing }
func (m *Ping) Encode(e *Encoder) { e.PutU64(m.Seq) }
func (m *Ping) Decode(d *Decoder) { m.Seq = d.U64() }

// Pong answers a Ping.
type Pong struct{ Seq uint64 }

func (*Pong) Type() MsgType       { return MsgPong }
func (m *Pong) Encode(e *Encoder) { e.PutU64(m.Seq) }
func (m *Pong) Decode(d *Decoder) { m.Seq = d.U64() }

// Layout describes how a file's bytes are striped across data servers:
// round-robin stripes of StripeSize bytes over Servers, in order. With
// Replicas > 1, replica r of the stripe owned by slot s lives on
// Servers[(s+r) mod len(Servers)] under a replica-tagged handle.
type Layout struct {
	StripeSize uint32
	Servers    []uint32 // indices into the cluster's data-server table
	Replicas   uint8    // copies of each stripe; 0 and 1 both mean one
}

// ReplicaCount normalises Replicas (0 means 1).
func (l Layout) ReplicaCount() int {
	if l.Replicas < 1 {
		return 1
	}
	return int(l.Replicas)
}

func (l *Layout) encode(e *Encoder) {
	e.PutU32(l.StripeSize)
	e.PutU8(l.Replicas)
	e.PutU32(uint32(len(l.Servers)))
	for _, s := range l.Servers {
		e.PutU32(s)
	}
}

func (l *Layout) decode(d *Decoder) {
	l.StripeSize = d.U32()
	l.Replicas = d.U8()
	n := int(d.U32())
	if n*4 > d.Remaining() {
		d.err = ErrShortPayload
		return
	}
	l.Servers = make([]uint32, n)
	for i := range l.Servers {
		l.Servers[i] = d.U32()
	}
}

// CreateReq asks the metadata server to create a file.
type CreateReq struct {
	Name       string
	StripeSize uint32 // 0 means the server default
	Width      uint32 // number of data servers to stripe over; 0 means all
	// Placement, when non-empty, pins the stripe layout to exactly these
	// data-server indices in order (Width is then ignored). Used to
	// co-locate a transform's output with its input.
	Placement []uint32
	// Replicas asks for this many copies of every stripe (0 and 1 both
	// mean no redundancy). Must not exceed the stripe width.
	Replicas uint8
}

func (*CreateReq) Type() MsgType { return MsgCreateReq }

func (m *CreateReq) Encode(e *Encoder) {
	e.PutString(m.Name)
	e.PutU32(m.StripeSize)
	e.PutU32(m.Width)
	e.PutU32(uint32(len(m.Placement)))
	for _, s := range m.Placement {
		e.PutU32(s)
	}
	e.PutU8(m.Replicas)
}

func (m *CreateReq) Decode(d *Decoder) {
	m.Name = d.String()
	m.StripeSize = d.U32()
	m.Width = d.U32()
	n := int(d.U32())
	if n*4 > d.Remaining() {
		d.err = ErrShortPayload
		return
	}
	if n > 0 {
		m.Placement = make([]uint32, n)
		for i := range m.Placement {
			m.Placement[i] = d.U32()
		}
	}
	m.Replicas = d.U8()
}

// CreateResp returns the handle and layout of a newly created file.
type CreateResp struct {
	Handle uint64
	Layout Layout
}

func (*CreateResp) Type() MsgType { return MsgCreateResp }

func (m *CreateResp) Encode(e *Encoder) {
	e.PutU64(m.Handle)
	m.Layout.encode(e)
}

func (m *CreateResp) Decode(d *Decoder) {
	m.Handle = d.U64()
	m.Layout.decode(d)
}

// OpenReq looks a file up by name.
type OpenReq struct {
	Name string
	// Tenant attributes this lookup for metadata QoS. Optional trailing
	// field, encoded only when non-empty (see ReadReq.Tenant).
	Tenant string
}

func (*OpenReq) Type() MsgType { return MsgOpenReq }

func (m *OpenReq) Encode(e *Encoder) {
	e.PutString(m.Name)
	if m.Tenant != "" {
		e.PutString(m.Tenant)
	}
}

func (m *OpenReq) Decode(d *Decoder) {
	m.Name = d.String()
	if d.Remaining() > 0 {
		m.Tenant = d.String()
	}
}

// OpenResp returns everything a client needs to address a file's stripes.
type OpenResp struct {
	Handle uint64
	Size   uint64
	Layout Layout
}

func (*OpenResp) Type() MsgType { return MsgOpenResp }

func (m *OpenResp) Encode(e *Encoder) {
	e.PutU64(m.Handle)
	e.PutU64(m.Size)
	m.Layout.encode(e)
}

func (m *OpenResp) Decode(d *Decoder) {
	m.Handle = d.U64()
	m.Size = d.U64()
	m.Layout.decode(d)
}

// StatReq asks for file metadata by name.
type StatReq struct {
	Name string
	// Tenant attributes this stat for metadata QoS. Optional trailing
	// field, encoded only when non-empty (see ReadReq.Tenant).
	Tenant string
}

func (*StatReq) Type() MsgType { return MsgStatReq }

func (m *StatReq) Encode(e *Encoder) {
	e.PutString(m.Name)
	if m.Tenant != "" {
		e.PutString(m.Tenant)
	}
}

func (m *StatReq) Decode(d *Decoder) {
	m.Name = d.String()
	if d.Remaining() > 0 {
		m.Tenant = d.String()
	}
}

// StatResp carries file metadata.
type StatResp struct {
	Handle   uint64
	Size     uint64
	ModUnixN int64 // modification time, Unix nanoseconds
	Layout   Layout
}

func (*StatResp) Type() MsgType { return MsgStatResp }

func (m *StatResp) Encode(e *Encoder) {
	e.PutU64(m.Handle)
	e.PutU64(m.Size)
	e.PutI64(m.ModUnixN)
	m.Layout.encode(e)
}

func (m *StatResp) Decode(d *Decoder) {
	m.Handle = d.U64()
	m.Size = d.U64()
	m.ModUnixN = d.I64()
	m.Layout.decode(d)
}

// RemoveReq deletes a file by name.
type RemoveReq struct{ Name string }

func (*RemoveReq) Type() MsgType       { return MsgRemoveReq }
func (m *RemoveReq) Encode(e *Encoder) { e.PutString(m.Name) }
func (m *RemoveReq) Decode(d *Decoder) { m.Name = d.String() }

// RemoveResp acknowledges a Remove. Handle lets storage servers be told to
// drop the file's stripes.
type RemoveResp struct{ Handle uint64 }

func (*RemoveResp) Type() MsgType       { return MsgRemoveResp }
func (m *RemoveResp) Encode(e *Encoder) { e.PutU64(m.Handle) }
func (m *RemoveResp) Decode(d *Decoder) { m.Handle = d.U64() }

// ListReq enumerates files whose names start with Prefix.
type ListReq struct {
	Prefix string
	// Tenant attributes this listing for metadata QoS. Optional trailing
	// field, encoded only when non-empty (see ReadReq.Tenant).
	Tenant string
}

func (*ListReq) Type() MsgType { return MsgListReq }

func (m *ListReq) Encode(e *Encoder) {
	e.PutString(m.Prefix)
	if m.Tenant != "" {
		e.PutString(m.Tenant)
	}
}

func (m *ListReq) Decode(d *Decoder) {
	m.Prefix = d.String()
	if d.Remaining() > 0 {
		m.Tenant = d.String()
	}
}

// ListResp carries matching names in lexical order.
type ListResp struct{ Names []string }

func (*ListResp) Type() MsgType       { return MsgListResp }
func (m *ListResp) Encode(e *Encoder) { e.PutStrings(m.Names) }
func (m *ListResp) Decode(d *Decoder) { m.Names = d.Strings() }

// SetSizeReq extends a file's recorded size after a write. The metadata
// server keeps the maximum of the current and requested sizes, so
// concurrent writers converge without coordination.
type SetSizeReq struct {
	Handle uint64
	Size   uint64
}

func (*SetSizeReq) Type() MsgType { return MsgSetSizeReq }

func (m *SetSizeReq) Encode(e *Encoder) {
	e.PutU64(m.Handle)
	e.PutU64(m.Size)
}

func (m *SetSizeReq) Decode(d *Decoder) {
	m.Handle = d.U64()
	m.Size = d.U64()
}

// SetSizeResp returns the size now on record.
type SetSizeResp struct{ Size uint64 }

func (*SetSizeResp) Type() MsgType       { return MsgSetSizeResp }
func (m *SetSizeResp) Encode(e *Encoder) { e.PutU64(m.Size) }
func (m *SetSizeResp) Decode(d *Decoder) { m.Size = d.U64() }

// ReadReq reads Length bytes at Offset from a data server's local byte
// stream for Handle. Offsets are server-local: the striping client maps
// file offsets to (server, local offset) pairs.
type ReadReq struct {
	Handle uint64
	Offset uint64
	Length uint32
	// Tenant attributes this request's resource usage. Optional trailing
	// field, encoded only when non-empty: an empty tenant IS the default
	// tenant, so default-tenant clients emit frames byte-identical to
	// pre-tenant peers and either side of an old/new pairing interops.
	Tenant string
	// ReqID, when non-zero, registers this read for cancellation: a
	// CancelReq carrying the same id makes the server stop serving it
	// (queued reads are dropped, in-flight responses zero-fill their
	// remaining segments). Hedged reads mint these so the losing replica
	// can be withdrawn. Third-generation optional trailing field, after
	// Tenant; when ReqID is set an empty tenant is encoded explicitly so
	// the fields stay positional.
	ReqID uint64
}

func (*ReadReq) Type() MsgType { return MsgReadReq }

func (m *ReadReq) Encode(e *Encoder) {
	e.PutU64(m.Handle)
	e.PutU64(m.Offset)
	e.PutU32(m.Length)
	if m.Tenant != "" || m.ReqID != 0 {
		e.PutString(m.Tenant)
	}
	if m.ReqID != 0 {
		e.PutU64(m.ReqID)
	}
}

func (m *ReadReq) Decode(d *Decoder) {
	m.Handle = d.U64()
	m.Offset = d.U64()
	m.Length = d.U32()
	if d.Remaining() > 0 {
		m.Tenant = d.String()
	}
	if d.Remaining() > 0 {
		m.ReqID = d.U64()
	}
}

// ReadResp returns the requested bytes. A short Data with EOF set means the
// local stream ended.
type ReadResp struct {
	Data []byte
	EOF  bool

	// Payload is not part of the wire format: when non-nil the response
	// body is served by reference from it (disk-backed zero-copy read
	// path) and Data is nil. The wire bytes are identical either way —
	// receivers always decode into Data. The sending data server closes
	// the payload in PostWrite, after the frame has left the connection.
	Payload Payload

	// PoolBuf is not part of the wire format. When non-nil it is the
	// pooled buffer Data aliases; the sending data server sets it so the
	// buffer can be recycled (PutBuf) once the response frame — which is
	// a copy — has been written. Decoded responses leave it nil.
	PoolBuf []byte

	// Cancelled is not part of the wire format. When non-nil the frame
	// writers check it between bulk segments: once it reads true the
	// remaining body bytes are zero-filled instead of served, so a
	// cancelled read stops consuming disk and memory bandwidth promptly
	// while the frame stays protocol-complete (its length was already
	// committed). Receivers never see it.
	Cancelled *atomic.Bool
}

func (*ReadResp) Type() MsgType { return MsgReadResp }

func (m *ReadResp) Encode(e *Encoder) {
	if m.Payload != nil {
		// Inline fallback for writers without a streaming fast path:
		// materialize the payload into the frame buffer.
		e.PutPayload(m.Payload)
		e.PutBool(m.EOF)
		return
	}
	e.PutBytes(m.Data)
	e.PutBool(m.EOF)
}

func (m *ReadResp) Decode(d *Decoder) {
	m.Data = d.Bytes()
	m.EOF = d.Bool()
}

// Own implements Owner: Data may alias a pooled frame buffer.
func (m *ReadResp) Own() { m.Data = detach(m.Data) }

// encodedSizeHint sizes the frame buffer for the bulk payload.
func (m *ReadResp) encodedSizeHint() int {
	if m.Payload != nil {
		return int(m.Payload.Len()) + 8
	}
	return len(m.Data) + 8
}

// bulkRef implements payloadCarrier: the body is Data or Payload.
func (m *ReadResp) bulkRef() ([]byte, Payload) { return m.Data, m.Payload }

// encodePre implements payloadCarrier: the body's u32 length prefix.
func (m *ReadResp) encodePre(e *Encoder, bodyLen int) { e.PutU32(uint32(bodyLen)) }

// encodePost implements payloadCarrier: the trailing EOF flag.
func (m *ReadResp) encodePost(e *Encoder) { e.PutBool(m.EOF) }

// cancelFlag implements cancelCarrier: the frame writers poll this
// between segments.
func (m *ReadResp) cancelFlag() *atomic.Bool { return m.Cancelled }

// WriteReq writes Data at the server-local Offset for Handle.
type WriteReq struct {
	Handle uint64
	Offset uint64
	Data   []byte
	// Tenant attributes this request. Optional trailing field, encoded
	// only when non-empty (see ReadReq.Tenant).
	Tenant string
}

func (*WriteReq) Type() MsgType { return MsgWriteReq }

func (m *WriteReq) Encode(e *Encoder) {
	e.PutU64(m.Handle)
	e.PutU64(m.Offset)
	e.PutBytes(m.Data)
	if m.Tenant != "" {
		e.PutString(m.Tenant)
	}
}

func (m *WriteReq) Decode(d *Decoder) {
	m.Handle = d.U64()
	m.Offset = d.U64()
	m.Data = d.Bytes()
	if d.Remaining() > 0 {
		m.Tenant = d.String()
	}
}

// Own implements Owner: Data may alias a pooled frame buffer.
func (m *WriteReq) Own() { m.Data = detach(m.Data) }

// encodedSizeHint sizes the frame buffer for the bulk payload.
func (m *WriteReq) encodedSizeHint() int { return len(m.Data) + len(m.Tenant) + 28 }

// WriteResp acknowledges the number of bytes durably applied.
type WriteResp struct{ N uint32 }

func (*WriteResp) Type() MsgType       { return MsgWriteResp }
func (m *WriteResp) Encode(e *Encoder) { e.PutU32(m.N) }
func (m *WriteResp) Decode(d *Decoder) { m.N = d.U32() }

// TruncReq truncates (or removes, when Size is 0 and Remove is set) the
// server-local stream for Handle.
type TruncReq struct {
	Handle uint64
	Size   uint64
	Remove bool
	// Tenant attributes this request. Optional trailing field, encoded
	// only when non-empty (see ReadReq.Tenant).
	Tenant string
}

func (*TruncReq) Type() MsgType { return MsgTruncReq }

func (m *TruncReq) Encode(e *Encoder) {
	e.PutU64(m.Handle)
	e.PutU64(m.Size)
	e.PutBool(m.Remove)
	if m.Tenant != "" {
		e.PutString(m.Tenant)
	}
}

func (m *TruncReq) Decode(d *Decoder) {
	m.Handle = d.U64()
	m.Size = d.U64()
	m.Remove = d.Bool()
	if d.Remaining() > 0 {
		m.Tenant = d.String()
	}
}

// TruncResp acknowledges a TruncReq.
type TruncResp struct{}

func (*TruncResp) Type() MsgType   { return MsgTruncResp }
func (*TruncResp) Encode(*Encoder) {}
func (*TruncResp) Decode(*Decoder) {}

// ActiveReadReq asks a storage server to run kernel Op over the
// server-local byte range [Offset, Offset+Length) of Handle and return the
// (small) result instead of the raw bytes. This is the wire form of the
// paper's MPI_File_read_ex.
type ActiveReadReq struct {
	RequestID uint64 // client-chosen id, used by CancelReq
	Handle    uint64
	Offset    uint64
	Length    uint64
	Op        string // kernel name in the registry, e.g. "sum64"
	Params    []byte // kernel-specific parameters (encoded by the kernel)
	// ResumeState carries a kernel checkpoint when the client re-issues a
	// previously interrupted request; empty for fresh requests.
	ResumeState []byte
	// TraceID is the distributed trace context minted by the client for
	// this active read; 0 when the peer predates tracing. Optional
	// trailing field: old-format frames omit it and still decode.
	TraceID uint64
	// Tenant attributes this request. Second-generation optional
	// trailing field, after TraceID, encoded only when non-empty (see
	// ReadReq.Tenant).
	Tenant string
}

func (*ActiveReadReq) Type() MsgType { return MsgActiveReadReq }

func (m *ActiveReadReq) Encode(e *Encoder) {
	e.PutU64(m.RequestID)
	e.PutU64(m.Handle)
	e.PutU64(m.Offset)
	e.PutU64(m.Length)
	e.PutString(m.Op)
	e.PutBytes(m.Params)
	e.PutBytes(m.ResumeState)
	e.PutU64(m.TraceID)
	if m.Tenant != "" {
		e.PutString(m.Tenant)
	}
}

func (m *ActiveReadReq) Decode(d *Decoder) {
	m.RequestID = d.U64()
	m.Handle = d.U64()
	m.Offset = d.U64()
	m.Length = d.U64()
	m.Op = d.String()
	m.Params = d.Bytes()
	m.ResumeState = d.Bytes()
	if d.Remaining() > 0 {
		m.TraceID = d.U64()
	}
	if d.Remaining() > 0 {
		m.Tenant = d.String()
	}
}

// Own implements Owner: Params and ResumeState may alias a pooled frame
// buffer.
func (m *ActiveReadReq) Own() {
	m.Params = detach(m.Params)
	m.ResumeState = detach(m.ResumeState)
}

// Dispositions of an active read, carried in ActiveReadResp.Disposition.
const (
	// ActiveDone: the kernel ran to completion on the storage node;
	// Result holds the final output (paper: completed = 1).
	ActiveDone uint8 = iota
	// ActiveRejected: the scheduling policy bounced the request before it
	// started; the client must do a normal read and run the kernel
	// locally (paper: completed = 0, buf = null).
	ActiveRejected
	// ActiveInterrupted: the kernel started but was preempted; State
	// holds its checkpoint and Processed the bytes already consumed
	// (paper: completed = 0, buf = saved status).
	ActiveInterrupted
)

// ActiveReadResp answers an ActiveReadReq. It is the wire form of the
// paper's struct result (Table I).
type ActiveReadResp struct {
	RequestID   uint64
	Disposition uint8  // ActiveDone, ActiveRejected, or ActiveInterrupted
	Result      []byte // kernel output when Disposition == ActiveDone
	State       []byte // kernel checkpoint when ActiveInterrupted
	Processed   uint64 // bytes already consumed by the kernel
	// TraceID echoes the request's trace context so responses can be
	// correlated without a lookup table. Optional trailing field.
	TraceID uint64
}

func (*ActiveReadResp) Type() MsgType { return MsgActiveReadResp }

func (m *ActiveReadResp) Encode(e *Encoder) {
	e.PutU64(m.RequestID)
	e.PutU8(m.Disposition)
	e.PutBytes(m.Result)
	e.PutBytes(m.State)
	e.PutU64(m.Processed)
	e.PutU64(m.TraceID)
}

func (m *ActiveReadResp) Decode(d *Decoder) {
	m.RequestID = d.U64()
	m.Disposition = d.U8()
	m.Result = d.Bytes()
	m.State = d.Bytes()
	m.Processed = d.U64()
	if d.Remaining() > 0 {
		m.TraceID = d.U64()
	}
}

// Own implements Owner: Result and State may alias a pooled frame buffer.
func (m *ActiveReadResp) Own() {
	m.Result = detach(m.Result)
	m.State = detach(m.State)
}

// encodedSizeHint sizes the frame buffer for the kernel output.
func (m *ActiveReadResp) encodedSizeHint() int { return len(m.Result) + len(m.State) + 48 }

// ProbeReq asks a storage server for its load status (the Contention
// Estimator's periodic probe).
type ProbeReq struct{}

func (*ProbeReq) Type() MsgType   { return MsgProbeReq }
func (*ProbeReq) Encode(*Encoder) {}
func (*ProbeReq) Decode(*Decoder) {}

// ProbeResp is a snapshot of a storage server's load: the inputs the paper
// lists for the CE — I/O queue, CPU utilisation, memory utilisation.
type ProbeResp struct {
	QueueLen       uint32  // normal I/O requests queued or in flight
	ActiveQueueLen uint32  // active I/O requests queued or in flight
	BusyCores      float64 // cores currently executing kernels
	TotalCores     uint32  // cores available to the active runtime
	MemUsed        uint64  // bytes of kernel working memory in use
	MemTotal       uint64  // configured memory budget
	BytesQueued    uint64  // total request bytes awaiting service
}

func (*ProbeResp) Type() MsgType { return MsgProbeResp }

func (m *ProbeResp) Encode(e *Encoder) {
	e.PutU32(m.QueueLen)
	e.PutU32(m.ActiveQueueLen)
	e.PutF64(m.BusyCores)
	e.PutU32(m.TotalCores)
	e.PutU64(m.MemUsed)
	e.PutU64(m.MemTotal)
	e.PutU64(m.BytesQueued)
}

func (m *ProbeResp) Decode(d *Decoder) {
	m.QueueLen = d.U32()
	m.ActiveQueueLen = d.U32()
	m.BusyCores = d.F64()
	m.TotalCores = d.U32()
	m.MemUsed = d.U64()
	m.MemTotal = d.U64()
	m.BytesQueued = d.U64()
}

// CancelReq withdraws a pending or running active read.
type CancelReq struct {
	RequestID uint64
	// TraceID is the request's trace context. Optional trailing field.
	TraceID uint64
}

func (*CancelReq) Type() MsgType { return MsgCancelReq }

func (m *CancelReq) Encode(e *Encoder) {
	e.PutU64(m.RequestID)
	e.PutU64(m.TraceID)
}

func (m *CancelReq) Decode(d *Decoder) {
	m.RequestID = d.U64()
	if d.Remaining() > 0 {
		m.TraceID = d.U64()
	}
}

// CancelResp reports whether the request was found (still pending or
// running) when the cancel arrived.
type CancelResp struct{ Found bool }

func (*CancelResp) Type() MsgType       { return MsgCancelResp }
func (m *CancelResp) Encode(e *Encoder) { e.PutBool(m.Found) }
func (m *CancelResp) Decode(d *Decoder) { m.Found = d.Bool() }

// TransformReq asks a storage server to run kernel Op over the
// server-local range [Offset, Offset+Length) of SrcHandle and write the
// output to the server-local stream of DstHandle at DstOffset — active
// write-back: neither input nor output crosses the network. The source
// and destination files must share a stripe layout and the operation must
// be size-preserving, which the client validates before issuing.
type TransformReq struct {
	RequestID uint64
	SrcHandle uint64
	Offset    uint64
	Length    uint64
	Op        string
	Params    []byte
	DstHandle uint64
	DstOffset uint64
	// TraceID is the client-minted trace context. Optional trailing field.
	TraceID uint64
	// Tenant attributes this request. Second-generation optional
	// trailing field, after TraceID, encoded only when non-empty (see
	// ReadReq.Tenant).
	Tenant string
}

func (*TransformReq) Type() MsgType { return MsgTransformReq }

func (m *TransformReq) Encode(e *Encoder) {
	e.PutU64(m.RequestID)
	e.PutU64(m.SrcHandle)
	e.PutU64(m.Offset)
	e.PutU64(m.Length)
	e.PutString(m.Op)
	e.PutBytes(m.Params)
	e.PutU64(m.DstHandle)
	e.PutU64(m.DstOffset)
	e.PutU64(m.TraceID)
	if m.Tenant != "" {
		e.PutString(m.Tenant)
	}
}

func (m *TransformReq) Decode(d *Decoder) {
	m.RequestID = d.U64()
	m.SrcHandle = d.U64()
	m.Offset = d.U64()
	m.Length = d.U64()
	m.Op = d.String()
	m.Params = d.Bytes()
	m.DstHandle = d.U64()
	m.DstOffset = d.U64()
	if d.Remaining() > 0 {
		m.TraceID = d.U64()
	}
	if d.Remaining() > 0 {
		m.Tenant = d.String()
	}
}

// Own implements Owner: Params may alias a pooled frame buffer.
func (m *TransformReq) Own() { m.Params = detach(m.Params) }

// LocalSizeReq asks a data server for the length of its local stream for
// Handle — the inspection primitive behind fsck and replica repair.
type LocalSizeReq struct{ Handle uint64 }

func (*LocalSizeReq) Type() MsgType       { return MsgLocalSizeReq }
func (m *LocalSizeReq) Encode(e *Encoder) { e.PutU64(m.Handle) }
func (m *LocalSizeReq) Decode(d *Decoder) { m.Handle = d.U64() }

// LocalSizeResp returns the local stream length (0 when absent).
type LocalSizeResp struct{ Size uint64 }

func (*LocalSizeResp) Type() MsgType       { return MsgLocalSizeResp }
func (m *LocalSizeResp) Encode(e *Encoder) { e.PutU64(m.Size) }
func (m *LocalSizeResp) Decode(d *Decoder) { m.Size = d.U64() }

// TransformResp acknowledges a TransformReq with the number of output
// bytes written locally.
type TransformResp struct {
	RequestID uint64
	Written   uint64
}

func (*TransformResp) Type() MsgType { return MsgTransformResp }

func (m *TransformResp) Encode(e *Encoder) {
	e.PutU64(m.RequestID)
	e.PutU64(m.Written)
}

func (m *TransformResp) Decode(d *Decoder) {
	m.RequestID = d.U64()
	m.Written = d.U64()
}

// HelloReq is the first message a mux-capable client sends on a fresh
// connection: an offer to upgrade from the ordered one-exchange-at-a-time
// framing to the multiplexed framing in mux.go. MaxVersion is the highest
// mux protocol version the client speaks; MaxSegment is the largest
// sub-frame payload, in bytes, it wants the server to emit. Servers that
// predate the handshake fail to decode the unknown type and drop the
// connection; the client then falls back to ordered mode for that peer.
type HelloReq struct {
	MaxVersion uint32
	MaxSegment uint32
}

func (*HelloReq) Type() MsgType { return MsgHelloReq }

func (m *HelloReq) Encode(e *Encoder) {
	e.PutU32(m.MaxVersion)
	e.PutU32(m.MaxSegment)
}

func (m *HelloReq) Decode(d *Decoder) {
	m.MaxVersion = d.U32()
	m.MaxSegment = d.U32()
}

// HelloResp answers a HelloReq. Version 0 declines the upgrade (the
// connection stays in ordered mode); Version >= 1 commits both sides to
// mux framing for every subsequent byte on this connection, with bulk
// frames segmented at MaxSegment.
type HelloResp struct {
	Version    uint32
	MaxSegment uint32
}

func (*HelloResp) Type() MsgType { return MsgHelloResp }

func (m *HelloResp) Encode(e *Encoder) {
	e.PutU32(m.Version)
	e.PutU32(m.MaxSegment)
}

func (m *HelloResp) Decode(d *Decoder) {
	m.Version = d.U32()
	m.MaxSegment = d.U32()
}

// InspectReq asks a node for one kind of observability data: its
// metrics, trace ring, health, telemetry history, decision log, event
// tail, alert table, tenant table or archived range (pfs.Inspector
// lists the kinds). Args is the kind's JSON-encoded argument object;
// empty means the kind's defaults. Both are opaque here, so a new kind
// or argument needs no new message.
type InspectReq struct {
	Kind string
	Args []byte
}

func (*InspectReq) Type() MsgType { return MsgInspectReq }

func (m *InspectReq) Encode(e *Encoder) {
	e.PutString(m.Kind)
	e.PutBytes(m.Args)
}

func (m *InspectReq) Decode(d *Decoder) {
	m.Kind = d.String()
	m.Args = d.Bytes()
}

// Own implements Owner: Args may alias a pooled frame buffer.
func (m *InspectReq) Own() { m.Args = detach(m.Args) }

// InspectResp carries one node's answer to an InspectReq: the serving
// node's identity and role ("data" or "meta") and the kind's
// JSON-encoded body.
type InspectResp struct {
	Node string
	Role string
	Body []byte
}

func (*InspectResp) Type() MsgType { return MsgInspectResp }

func (m *InspectResp) Encode(e *Encoder) {
	e.PutString(m.Node)
	e.PutString(m.Role)
	e.PutBytes(m.Body)
}

func (m *InspectResp) Decode(d *Decoder) {
	m.Node = d.String()
	m.Role = d.String()
	m.Body = d.Bytes()
}

// Own implements Owner: Body may alias a pooled frame buffer.
func (m *InspectResp) Own() { m.Body = detach(m.Body) }

// encodedSizeHint sizes the frame buffer for the body.
func (m *InspectResp) encodedSizeHint() int { return len(m.Body) + len(m.Node) + len(m.Role) + 16 }
