package kernels

import (
	"encoding/binary"
)

func init() {
	Register("sum8", func() Kernel { return &sum8{} })
	Register("sum64", func() Kernel { return &sum64{} })
}

// sum8 is the paper's SUM benchmark: one addition per data item, where an
// item is a byte. Result: the total as a little-endian uint64.
type sum8 struct {
	total     uint64
	processed uint64
}

func (*sum8) Name() string             { return "sum8" }
func (*sum8) Configure([]byte) error   { return nil }
func (*sum8) ResultSize(uint64) uint64 { return 8 }

// sumBlock is how many bytes sum8 adds in 16-bit lanes before folding
// them: 32 words add at most 32·2·255 = 16320 to a lane, and the four
// lanes together stay below 1<<16.
const sumBlock = 32 * 8

func (k *sum8) Process(chunk []byte) error {
	var t uint64
	b := chunk
	for ; len(b) >= sumBlock; b = b[sumBlock:] {
		var acc uint64
		for i := 0; i < sumBlock; i += 8 {
			x := binary.LittleEndian.Uint64(b[i:])
			acc += x&lanes8 + x>>8&lanes8
		}
		t += acc * lanes1 >> 48
	}
	for _, c := range b {
		t += uint64(c)
	}
	k.total += t
	k.processed += uint64(len(chunk))
	return nil
}

func (k *sum8) Checkpoint() ([]byte, error) {
	s := NewState()
	s.PutInt64("total", int64(k.total))
	s.PutInt64("processed", int64(k.processed))
	return s.Encode(k.Name())
}

func (k *sum8) Restore(state []byte) error {
	s, err := DecodeState(k.Name(), state)
	if err != nil {
		return err
	}
	total, err := s.Int64("total")
	if err != nil {
		return err
	}
	processed, err := s.Int64("processed")
	if err != nil {
		return err
	}
	k.total = uint64(total)
	k.processed = uint64(processed)
	return nil
}

func (k *sum8) Result() ([]byte, error) {
	out := make([]byte, 8)
	binary.LittleEndian.PutUint64(out, k.total)
	return out, nil
}

// Sum8Result decodes a sum8 kernel output.
func Sum8Result(out []byte) uint64 {
	if len(out) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(out)
}

// sum64 sums a stream of little-endian float64 elements. Result: the total
// as 8 bytes. Elements split across chunks are carried.
type sum64 struct {
	total     float64
	processed uint64
	c         carry
}

func (*sum64) Name() string             { return "sum64" }
func (*sum64) ResultSize(uint64) uint64 { return 8 }

func (k *sum64) Configure([]byte) error {
	k.c = carry{elem: 8}
	return nil
}

func (k *sum64) Process(chunk []byte) error {
	if k.c.elem == 0 {
		k.c = carry{elem: 8}
	}
	k.c.feed(chunk, func(whole []byte) {
		for i := 0; i+8 <= len(whole); i += 8 {
			k.total += f64le(whole[i:])
		}
	})
	k.processed += uint64(len(chunk))
	return nil
}

func (k *sum64) Checkpoint() ([]byte, error) {
	s := NewState()
	s.PutFloat64("total", k.total)
	s.PutInt64("processed", int64(k.processed))
	s.PutBytes("carry", k.c.buf)
	return s.Encode(k.Name())
}

func (k *sum64) Restore(state []byte) error {
	s, err := DecodeState(k.Name(), state)
	if err != nil {
		return err
	}
	if k.total, err = s.Float64("total"); err != nil {
		return err
	}
	processed, err := s.Int64("processed")
	if err != nil {
		return err
	}
	k.processed = uint64(processed)
	cb, err := s.Bytes("carry")
	if err != nil {
		return err
	}
	k.c = carry{elem: 8, buf: append([]byte(nil), cb...)}
	return nil
}

func (k *sum64) Result() ([]byte, error) {
	out := make([]byte, 8)
	binary.LittleEndian.PutUint64(out, f64bits(k.total))
	return out, nil
}

// Sum64Result decodes a sum64 kernel output.
func Sum64Result(out []byte) float64 {
	if len(out) < 8 {
		return 0
	}
	return f64le(out)
}
