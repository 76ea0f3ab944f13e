package pfs

import (
	"sync"

	"dosas/internal/wire"
)

// Store is a data server's backing object store: one sparse byte stream per
// file handle (the concatenation of the stripes this server owns, in
// server-local order). Implementations must be safe for concurrent use.
//
// Disk-backed stores additionally implement RangeReader, the extension
// behind the zero-copy read path.
type Store interface {
	// ReadAt fills p from the stream at off. Bytes beyond the stream end
	// are reported by a short count; holes read as zeros.
	ReadAt(handle uint64, p []byte, off uint64) (int, error)
	// WriteAt stores p at off, extending the stream as needed.
	WriteAt(handle uint64, p []byte, off uint64) (int, error)
	// Size returns the current stream length for handle (0 if absent).
	Size(handle uint64) uint64
	// Truncate cuts the stream to size bytes.
	Truncate(handle uint64, size uint64) error
	// Remove deletes the stream entirely.
	Remove(handle uint64) error
	// Close releases resources.
	Close() error
}

// RangeReader is the optional Store extension for serving bulk reads by
// reference: instead of staging the bytes through a buffer, the store
// hands back a wire.Payload describing where they live (extent files,
// holes), which the framing layer then moves with sendfile/writev. A
// store without it — MemStore — keeps the pooled-buffer path.
type RangeReader interface {
	// ReadRange returns a payload serving exactly n bytes of handle's
	// stream at off; off+n must not exceed Size at call time (the
	// payload zero-fills if the stream shrinks afterwards, keeping its
	// announced length). The caller must Close the payload once the
	// frame is written — it pins fd-cache references until then.
	ReadRange(handle uint64, off, n uint64) (wire.Payload, error)
}

// MemStore keeps streams in memory. It is the default for tests, examples,
// and benchmarks where durability is irrelevant.
type MemStore struct {
	mu      sync.RWMutex
	streams map[uint64][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{streams: make(map[uint64][]byte)}
}

// ReadAt implements Store.
func (s *MemStore) ReadAt(handle uint64, p []byte, off uint64) (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data := s.streams[handle]
	if off >= uint64(len(data)) {
		return 0, nil
	}
	return copy(p, data[off:]), nil
}

// WriteAt implements Store.
func (s *MemStore) WriteAt(handle uint64, p []byte, off uint64) (int, error) {
	if len(p) == 0 {
		return 0, nil // zero-length writes do not extend (POSIX pwrite)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	data := s.streams[handle]
	end := off + uint64(len(p))
	if end > uint64(len(data)) {
		grown := make([]byte, end)
		copy(grown, data)
		data = grown
	}
	copy(data[off:], p)
	s.streams[handle] = data
	return len(p), nil
}

// Size implements Store.
func (s *MemStore) Size(handle uint64) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return uint64(len(s.streams[handle]))
}

// Truncate implements Store.
func (s *MemStore) Truncate(handle uint64, size uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.streams[handle]
	if !ok {
		return nil
	}
	if size < uint64(len(data)) {
		s.streams[handle] = data[:size:size]
	}
	return nil
}

// Remove implements Store.
func (s *MemStore) Remove(handle uint64) error {
	s.mu.Lock()
	delete(s.streams, handle)
	s.mu.Unlock()
	return nil
}

// Close implements Store.
func (s *MemStore) Close() error { return nil }
