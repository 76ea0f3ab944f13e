package kernels

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"dosas/internal/wire"
)

func init() {
	Register("gaussian2d", func() Kernel { return &gaussian2d{} })
}

// GaussianParams encodes parameters for the gaussian2d kernel: the image
// row width in pixels, and whether to emit the full filtered image (true)
// or only a 29-byte digest (false). Digest mode is what the scheduling
// experiments use — active storage only pays off when h(x) ≪ x, and the
// paper's cost model assumes a small result transfer g(h(x)).
func GaussianParams(width uint32, emitFull bool) []byte {
	var e wire.Encoder
	e.PutU32(width)
	e.PutBool(emitFull)
	return e.Bytes()
}

// GaussianParamsHalo is GaussianParams plus explicit halo rows: top is
// used as the row above the band's first row and bottom as the row below
// its last (instead of edge replication). Halos let a band of rows be
// filtered in isolation yet bit-exactly match the same rows of a whole-
// image filter — the mechanism behind exact Gaussian filtering of striped
// images. Either halo may be nil to keep replication on that edge.
func GaussianParamsHalo(width uint32, emitFull bool, top, bottom []byte) []byte {
	var e wire.Encoder
	e.PutU32(width)
	e.PutBool(emitFull)
	e.PutBytes(top)
	e.PutBytes(bottom)
	return e.Bytes()
}

// gaussian2d applies the paper's 2-D Gaussian filter benchmark: a 3×3
// convolution with kernel [[1,2,1],[2,4,2],[1,2,1]]/16 over an 8-bit
// grayscale image (Table III's 2-D Gaussian). The output is bit-identical
// to that 3×3 filter; filterRow evaluates it separably, eight pixels per
// word. The paper's cost regime (80 MB/s per core) does not come from
// this instruction count: it lives in the rate table the Contention
// Estimator costs kernels with (defaultRates, pinned by
// TestRateDefaultsMatchPaper) and in the runtime's Pace option, which
// throttles kernels to those rates.
//
// The stream is rows of width pixels, one byte each. Border pixels are
// handled by edge replication. In digest mode the result is
// ⟨rows u64, sum u64, min u8, max u8, crc32 u32⟩ of the filtered interior;
// in full mode the filtered image itself.
type gaussian2d struct {
	width    int
	emitFull bool
	topHalo  []byte // optional explicit neighbour above the first row (padded)
	botHalo  []byte // optional explicit neighbour below the last row (padded)

	// ring holds the row being assembled in ring[next] and the last two
	// complete rows: the newest in ring[(next+2)%3], the one before it in
	// ring[(next+1)%3]. have counts how many of those two are live.
	// Complete rows are padded to whole words (padRow). The kernel copies
	// every row into the ring, so it never retains a chunk slice.
	ring [3][]byte
	next int
	have int
	out  []byte // filtered row, reused for every row
	rows uint64 // complete rows consumed

	// Digest accumulators over filtered pixels.
	fSum    uint64
	fMin    uint8
	fMax    uint8
	fCRC    uint32
	fPixels uint64
	full    []byte // filtered image when emitFull
	haveMin bool
}

func (*gaussian2d) Name() string { return "gaussian2d" }

func (k *gaussian2d) ResultSize(inputBytes uint64) uint64 {
	if k.emitFull {
		return inputBytes
	}
	return 29
}

func (k *gaussian2d) Configure(params []byte) error {
	if len(params) == 0 {
		return fmt.Errorf("kernels: gaussian2d requires GaussianParams")
	}
	d := wire.NewDecoder(params)
	w := d.U32()
	k.emitFull = d.Bool()
	if err := d.Err(); err != nil {
		return fmt.Errorf("kernels: gaussian2d params: %w", err)
	}
	if w < 3 {
		return fmt.Errorf("kernels: gaussian2d width %d below minimum 3", w)
	}
	k.width = int(w)
	// Optional halo rows (GaussianParamsHalo).
	if d.Remaining() > 0 {
		top := d.Bytes()
		bottom := d.Bytes()
		if err := d.Err(); err != nil {
			return fmt.Errorf("kernels: gaussian2d halo params: %w", err)
		}
		if len(top) > 0 {
			if len(top) != k.width {
				return fmt.Errorf("kernels: gaussian2d top halo has %d bytes, want %d", len(top), k.width)
			}
			k.topHalo = padRow(append([]byte(nil), top...), k.width)
		}
		if len(bottom) > 0 {
			if len(bottom) != k.width {
				return fmt.Errorf("kernels: gaussian2d bottom halo has %d bytes, want %d", len(bottom), k.width)
			}
			k.botHalo = padRow(append([]byte(nil), bottom...), k.width)
		}
	}
	return nil
}

func (k *gaussian2d) Process(chunk []byte) error {
	if k.width == 0 {
		return fmt.Errorf("kernels: gaussian2d not configured")
	}
	for len(chunk) > 0 {
		row := k.ring[k.next]
		n := min(k.width-len(row), len(chunk))
		k.ring[k.next] = append(row, chunk[:n]...)
		chunk = chunk[n:]
		if len(row)+n < k.width {
			return nil
		}
		k.pushRow()
	}
	return nil
}

// padRow extends a complete row to a whole number of 8-byte words by
// replicating its last pixel, which is the right-edge clamp, so that
// filterRow loads every word whole.
func padRow(row []byte, width int) []byte {
	row = row[:width]
	for last := row[width-1]; len(row)%8 != 0; {
		row = append(row, last)
	}
	return row
}

// pushRow completes the row in ring[next] and advances the 3-row window:
// arrival of row N lets row N-1 be filtered. The final row is flushed by
// Result.
func (k *gaussian2d) pushRow() {
	k.rows++
	below := padRow(k.ring[k.next], k.width)
	k.ring[k.next] = below
	if k.have > 0 {
		k.filterRow(k.above(), k.ring[(k.next+2)%3], below)
	}
	k.next = (k.next + 1) % 3
	k.ring[k.next] = k.ring[k.next][:0]
	k.have = min(k.have+1, 2)
}

// above returns the row above the newest complete row: the row before
// it, else the top halo from the band above, else the row itself
// (replicated upward at the top edge).
func (k *gaussian2d) above() []byte {
	switch {
	case k.have == 2:
		return k.ring[(k.next+1)%3]
	case k.topHalo != nil:
		return k.topHalo
	default:
		return k.ring[(k.next+2)%3]
	}
}

// filterRow convolves mid with the rows above and below it and feeds the
// filtered pixels to the digest. All three rows are padded (padRow).
//
// The 3×3 kernel is separable: a vertical [1 2 1] pass v = above +
// 2·mid + below, a horizontal [1 2 1] pass over v, then >>4. The result
// is bit-identical to the direct 9-tap sum. Both passes run on eight
// pixels per uint64 (SWAR): each word splits into its even and its odd
// pixels, one per 16-bit lane, wide enough for the largest sum
// (16·255 = 4080) so no lane carries into the next. A pixel's horizontal
// neighbours are lanes of the other plane, with one lane carried in from
// the word on each side. The left clamp is the carry's starting value;
// the right clamp comes from the padding. Sum, min and max run lane-wise
// in the same loop and fold to scalars once per row.
func (k *gaussian2d) filterRow(above, mid, below []byte) {
	w := k.width
	n := (w + 7) &^ 7
	if len(k.out) < n {
		k.out = make([]byte, n)
	}
	out := k.out[:n]
	above, mid, below = above[:n], mid[:n], below[:n]

	ve, vo := vsum(above, mid, below, 0)
	left := ve & 0xFFFF // v[-1] = v[0]
	keepE, keepO := uint64(lanes8), uint64(lanes8)
	lo, hi := uint64(lanes8), uint64(0)
	var sum uint64
	for x := 0; x < n; x += 8 {
		var nve, nvo uint64
		right := vo &^ (1<<48 - 1) // last word: v[w] = v[w-1], held in the top odd lane
		if x+8 < n {
			nve, nvo = vsum(above, mid, below, x+8)
			right = nve << 48
		} else if r := w % 8; r != 0 {
			// Only the first r pixels of the last word are in the row.
			keepE &= uint64(1)<<(16*((r+1)/2)) - 1
			keepO &= uint64(1)<<(16*(r/2)) - 1
		}
		he := (vo<<16 | left) + ve<<1 + vo
		ho := ve + vo<<1 + (ve>>16 | right)
		left = vo >> 48
		pe, po := he>>4&lanes8, ho>>4&lanes8
		binary.LittleEndian.PutUint64(out[x:], pe|po<<8)
		// Pixels past the row end read as 0 for the sum and max and as
		// 255 for the min.
		pe, po = pe&keepE, po&keepO
		sum += (pe + po) * lanes1 >> 48
		lo = min16(lo, min16(pe|lanes8&^keepE, po|lanes8&^keepO))
		hi = max16(hi, max16(pe, po))
		ve, vo = nve, nvo
	}
	out = out[:w]

	rowMin, rowMax := uint8(lo), uint8(hi)
	for s := 16; s < 64; s += 16 {
		rowMin = min(rowMin, uint8(lo>>s))
		rowMax = max(rowMax, uint8(hi>>s))
	}
	k.fSum += sum
	if !k.haveMin || rowMin < k.fMin {
		k.fMin = rowMin
		k.haveMin = true
	}
	k.fMax = max(k.fMax, rowMax)
	k.fPixels += uint64(w)
	k.fCRC = crc32.Update(k.fCRC, crc32.IEEETable, out)
	if k.emitFull {
		k.full = append(k.full, out...)
	}
}

// vsum returns the vertical [1 2 1] sums of the eight pixels at byte off
// of rows a, m and b: even pixels in e and odd pixels in o, one per
// 16-bit lane.
func vsum(a, m, b []byte, off int) (e, o uint64) {
	x := binary.LittleEndian.Uint64(a[off:])
	y := binary.LittleEndian.Uint64(m[off:])
	z := binary.LittleEndian.Uint64(b[off:])
	e = x&lanes8 + (y&lanes8)<<1 + z&lanes8
	o = x>>8&lanes8 + (y>>8&lanes8)<<1 + z>>8&lanes8
	return e, o
}

func (k *gaussian2d) Checkpoint() ([]byte, error) {
	s := NewState()
	s.PutInt64("width", int64(k.width))
	if k.emitFull {
		s.PutInt64("emitFull", 1)
	} else {
		s.PutInt64("emitFull", 0)
	}
	s.PutBytes("topHalo", k.unpadded(k.topHalo))
	s.PutBytes("botHalo", k.unpadded(k.botHalo))
	s.PutBytes("rowPartial", k.ring[k.next])
	var prev, cur []byte
	if k.have > 0 {
		cur = k.ring[(k.next+2)%3]
	}
	if k.have > 1 {
		prev = k.ring[(k.next+1)%3]
	}
	s.PutBytes("prev", k.unpadded(prev))
	s.PutBytes("cur", k.unpadded(cur))
	s.PutInt64("rows", int64(k.rows))
	s.PutInt64("fSum", int64(k.fSum))
	s.PutInt64("fMin", int64(k.fMin))
	s.PutInt64("fMax", int64(k.fMax))
	s.PutInt64("fCRC", int64(k.fCRC))
	s.PutInt64("fPixels", int64(k.fPixels))
	if k.haveMin {
		s.PutInt64("haveMin", 1)
	} else {
		s.PutInt64("haveMin", 0)
	}
	s.PutBytes("full", k.full)
	return s.Encode(k.Name())
}

// unpadded strips padRow's padding from a row, keeping nil as nil.
func (k *gaussian2d) unpadded(row []byte) []byte {
	if row == nil {
		return nil
	}
	return row[:k.width]
}

func (k *gaussian2d) Restore(state []byte) error {
	s, err := DecodeState(k.Name(), state)
	if err != nil {
		return err
	}
	geti := func(name string) int64 {
		if err != nil {
			return 0
		}
		var v int64
		v, err = s.Int64(name)
		return v
	}
	getb := func(name string) []byte {
		if err != nil {
			return nil
		}
		var v []byte
		v, err = s.Bytes(name)
		return append([]byte(nil), v...)
	}
	k.width = int(geti("width"))
	k.emitFull = geti("emitFull") != 0
	topHalo := getb("topHalo")
	botHalo := getb("botHalo")
	rowPartial := getb("rowPartial")
	prev := getb("prev")
	cur := getb("cur")
	k.rows = uint64(geti("rows"))
	k.fSum = uint64(geti("fSum"))
	k.fMin = uint8(geti("fMin"))
	k.fMax = uint8(geti("fMax"))
	k.fCRC = uint32(geti("fCRC"))
	k.fPixels = uint64(geti("fPixels"))
	k.haveMin = geti("haveMin") != 0
	k.full = getb("full")
	if err != nil {
		return err
	}
	// Every stored row is empty (absent) or exactly one row wide, and a
	// window with a previous row has a current one.
	w := k.width
	if w < 3 || len(rowPartial) >= w || len(prev) > 0 && len(cur) == 0 {
		return fmt.Errorf("%w: gaussian2d window", ErrStateCorrupt)
	}
	for _, r := range [][]byte{topHalo, botHalo, prev, cur} {
		if len(r) != 0 && len(r) != w {
			return fmt.Errorf("%w: gaussian2d row of %d bytes, width %d", ErrStateCorrupt, len(r), w)
		}
	}
	// Empty slices round-trip as absent rows.
	k.topHalo, k.botHalo = nil, nil
	if len(topHalo) > 0 {
		k.topHalo = padRow(topHalo, w)
	}
	if len(botHalo) > 0 {
		k.botHalo = padRow(botHalo, w)
	}
	k.ring, k.next, k.have = [3][]byte{rowPartial}, 0, 0
	if len(cur) > 0 {
		k.ring[2], k.have = padRow(cur, w), 1
	}
	if len(prev) > 0 {
		k.ring[1], k.have = padRow(prev, w), 2
	}
	return nil
}

func (k *gaussian2d) Result() ([]byte, error) {
	// Flush the final row: filter it against the bottom halo when
	// supplied, else a replicated row below.
	if k.have > 0 {
		mid := k.ring[(k.next+2)%3]
		below := k.botHalo
		if below == nil {
			below = mid
		}
		k.filterRow(k.above(), mid, below)
	}
	k.have = 0
	if k.emitFull {
		return k.full, nil
	}
	out := make([]byte, 29)
	binary.LittleEndian.PutUint64(out[0:8], k.fPixels)
	binary.LittleEndian.PutUint64(out[8:16], k.fSum)
	out[16] = k.fMin
	out[17] = k.fMax
	binary.LittleEndian.PutUint32(out[18:22], k.fCRC)
	// Bytes 22..29 reserved (row count) for forward compatibility.
	binary.LittleEndian.PutUint32(out[22:26], uint32(k.rows))
	return out, nil
}

// GaussianDigest is the decoded digest-mode result of gaussian2d.
type GaussianDigest struct {
	Pixels   uint64
	Sum      uint64
	Min, Max uint8
	CRC      uint32
	Rows     uint32
}

// DecodeGaussianDigest parses a digest-mode gaussian2d output.
func DecodeGaussianDigest(out []byte) (GaussianDigest, error) {
	if len(out) < 29 {
		return GaussianDigest{}, fmt.Errorf("kernels: gaussian digest too short (%d bytes)", len(out))
	}
	return GaussianDigest{
		Pixels: binary.LittleEndian.Uint64(out[0:8]),
		Sum:    binary.LittleEndian.Uint64(out[8:16]),
		Min:    out[16],
		Max:    out[17],
		CRC:    binary.LittleEndian.Uint32(out[18:22]),
		Rows:   binary.LittleEndian.Uint32(out[22:26]),
	}, nil
}
