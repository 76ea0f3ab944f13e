package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"

	"dosas/internal/kernels"
)

// fill writes seeded pseudo-random bytes into p: the same (seed, stream)
// always gives the same bytes.
func fill(p []byte, seed, stream uint64) {
	r := rand.New(rand.NewPCG(seed, stream))
	var w [8]byte
	for i := 0; i < len(p); i += 8 {
		binary.LittleEndian.PutUint64(w[:], r.Uint64())
		copy(p[i:], w[:])
	}
}

// generate returns n seeded bytes.
func generate(n int, seed, stream uint64) []byte {
	p := make([]byte, n)
	fill(p, seed, stream)
	return p
}

// localStreams splits a file's bytes into the per-storage-node local
// streams round-robin striping produces: slot s holds stripes s, s+w,
// s+2w, … back to back. This is the byte stream each node's kernel (or
// the client, for a bounced part) runs over.
func localStreams(data []byte, stripe, width int) [][]byte {
	out := make([][]byte, width)
	for off, k := 0, 0; off < len(data); off, k = off+stripe, k+1 {
		end := min(off+stripe, len(data))
		out[k%width] = append(out[k%width], data[off:end]...)
	}
	return out
}

// expectedActive computes, with the kernels package directly, what an
// active read of op over every file must return: each node's local
// stream through the kernel, then the op's combiner over all parts.
func expectedActive(op string, params []byte, files [][]byte, stripe, width int) ([]byte, error) {
	var parts [][]byte
	for _, f := range files {
		for _, s := range localStreams(f, stripe, width) {
			k, err := kernels.New(op)
			if err != nil {
				return nil, err
			}
			if err := k.Configure(params); err != nil {
				return nil, err
			}
			if err := k.Process(s); err != nil {
				return nil, err
			}
			out, err := k.Result()
			if err != nil {
				return nil, err
			}
			parts = append(parts, out)
		}
	}
	return kernels.Combine(op, parts)
}

// checkRead reports whether a plain read of want returned exactly it.
func checkRead(got []byte, n int, err error, want []byte) error {
	if err != nil {
		return err
	}
	if n != len(want) {
		return fmt.Errorf("short read: %d of %d bytes", n, len(want))
	}
	if !bytes.Equal(got[:n], want) {
		return fmt.Errorf("read returned wrong bytes")
	}
	return nil
}

// checkActive reports whether an active read's output matches the
// independently computed expectation.
func checkActive(op string, got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s returned %x, want %x", op, got, want)
	}
	return nil
}

// checkSize reports whether a stat returned the expected size.
func checkSize(name string, got, want uint64) error {
	if got != want {
		return fmt.Errorf("stat %s: size %d, want %d", name, got, want)
	}
	return nil
}
