package kernels

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"
)

// refGaussian is the reference 2-D Gaussian: the paper's 3×3 kernel
// [[1,2,1],[2,4,2],[1,2,1]]/16 as a direct 9-tap sum per pixel, with
// column edges replicated and rows replaced by the halos (or replicated)
// above the first and below the last row. It filters the complete rows
// of img and ignores a trailing partial row, as the kernel does.
func refGaussian(img []byte, w int, top, bottom []byte) []byte {
	h := len(img) / w
	row := func(y int) []byte { return img[y*w : (y+1)*w] }
	out := make([]byte, 0, h*w)
	for y := 0; y < h; y++ {
		above, mid, below := top, row(y), bottom
		if y > 0 {
			above = row(y - 1)
		} else if above == nil {
			above = mid
		}
		if y < h-1 {
			below = row(y + 1)
		} else if below == nil {
			below = mid
		}
		for x := 0; x < w; x++ {
			xl, xr := max(x-1, 0), min(x+1, w-1)
			acc := 1*uint32(above[xl]) + 2*uint32(above[x]) + 1*uint32(above[xr]) +
				2*uint32(mid[xl]) + 4*uint32(mid[x]) + 2*uint32(mid[xr]) +
				1*uint32(below[xl]) + 2*uint32(below[x]) + 1*uint32(below[xr])
			out = append(out, uint8(acc/16))
		}
	}
	return out
}

// refGaussianResult is what the gaussian2d kernel must return for img:
// the reference image itself in full mode, else its 29-byte digest.
func refGaussianResult(img []byte, w int, emitFull bool, top, bottom []byte) []byte {
	full := refGaussian(img, w, top, bottom)
	if emitFull {
		return full
	}
	var sum uint64
	var mn, mx uint8
	for i, p := range full {
		sum += uint64(p)
		if i == 0 || p < mn {
			mn = p
		}
		mx = max(mx, p)
	}
	out := make([]byte, 29)
	binary.LittleEndian.PutUint64(out[0:8], uint64(len(full)))
	binary.LittleEndian.PutUint64(out[8:16], sum)
	out[16], out[17] = mn, mx
	binary.LittleEndian.PutUint32(out[18:22], crc32.ChecksumIEEE(full))
	binary.LittleEndian.PutUint32(out[22:26], uint32(len(img)/w))
	return out
}

// refSum8 is the reference SUM: one addition per byte.
func refSum8(data []byte) uint64 {
	var t uint64
	for _, b := range data {
		t += uint64(b)
	}
	return t
}

// imagePatterns are the pixel sources the SWAR kernel is checked on:
// random bytes, and the images that push its lanes to their limits (all
// 255 gives the largest sums, alternating 0/255 the widest per-word
// min/max spread).
var imagePatterns = []struct {
	name  string
	pixel func(rng *rand.Rand, i int) byte
}{
	{"random", func(rng *rand.Rand, _ int) byte { return byte(rng.Intn(256)) }},
	{"zero", func(*rand.Rand, int) byte { return 0 }},
	{"full", func(*rand.Rand, int) byte { return 255 }},
	{"alternating", func(_ *rand.Rand, i int) byte { return byte(-(i & 1)) }},
}

func fillImage(rng *rand.Rand, n, pattern int) []byte {
	img := make([]byte, n)
	for i := range img {
		img[i] = imagePatterns[pattern].pixel(rng, i)
	}
	return img
}

// randomSizes returns chunk sizes for n bytes: one-byte chunks, chunks
// near the row width, and arbitrary ones.
func randomSizes(rng *rand.Rand, n, w int) []int {
	var sizes []int
	for left := n; left > 0; {
		var s int
		switch rng.Intn(3) {
		case 0:
			s = 1
		case 1:
			s = rng.Intn(w+3) + 1
		default:
			s = rng.Intn(n) + 1
		}
		s = min(s, left)
		sizes = append(sizes, s)
		left -= s
	}
	if len(sizes) == 0 {
		sizes = []int{1}
	}
	return sizes
}

// gaussianCase draws one image and configuration: width w, 1–5 complete
// rows plus a partial trailing row, each halo nil or set, either mode.
func gaussianCase(rng *rand.Rand, w, pattern int) (img, top, bottom []byte, emitFull bool) {
	rows := rng.Intn(5) + 1
	img = fillImage(rng, rows*w+rng.Intn(w), pattern)
	if rng.Intn(2) == 0 {
		top = fillImage(rng, w, pattern)
	}
	if rng.Intn(2) == 0 {
		bottom = fillImage(rng, w, pattern)
	}
	return img, top, bottom, rng.Intn(2) == 0
}

func TestGaussianMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for w := 3; w <= 67; w++ {
		for p := range imagePatterns {
			for i := 0; i < 8; i++ {
				img, top, bottom, emitFull := gaussianCase(rng, w, p)
				params := GaussianParamsHalo(uint32(w), emitFull, top, bottom)
				want := refGaussianResult(img, w, emitFull, top, bottom)
				if got := runWhole(t, "gaussian2d", params, img); !bytes.Equal(got, want) {
					t.Fatalf("w=%d %s case %d whole: got %x, want %x", w, imagePatterns[p].name, i, got, want)
				}
				sizes := randomSizes(rng, len(img), w)
				if got := runChunked(t, "gaussian2d", params, img, sizes); !bytes.Equal(got, want) {
					t.Fatalf("w=%d %s case %d chunks %v: got %x, want %x", w, imagePatterns[p].name, i, sizes, got, want)
				}
			}
		}
	}
}

func TestGaussianMigrationAtEveryCut(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for w := 3; w <= 67; w++ {
		img, top, bottom, emitFull := gaussianCase(rng, w, rng.Intn(len(imagePatterns)))
		params := GaussianParamsHalo(uint32(w), emitFull, top, bottom)
		want := refGaussianResult(img, w, emitFull, top, bottom)
		for cut := 0; cut <= len(img); cut++ {
			if got := runWithMigration(t, "gaussian2d", params, img, cut); !bytes.Equal(got, want) {
				t.Fatalf("w=%d cut=%d of %d: got %x, want %x", w, cut, len(img), got, want)
			}
		}
	}
}

func TestSum8MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	buf := make([]byte, 600+8)
	for p := range imagePatterns {
		for i := range buf {
			buf[i] = imagePatterns[p].pixel(rng, i)
		}
		for n := 0; n <= 600; n++ {
			for off := 0; off < 8; off++ {
				data := buf[off : off+n]
				if got := Sum8Result(runWhole(t, "sum8", nil, data)); got != refSum8(data) {
					t.Fatalf("%s len=%d off=%d: sum8 = %d, want %d", imagePatterns[p].name, n, off, got, refSum8(data))
				}
			}
		}
	}
}

// FuzzGaussianMatchesReference checks the kernel against refGaussian on
// arbitrary images. width picks 3–67 pixels; flags bit 0 selects full
// mode and bits 1 and 2 take a top and a bottom halo from the front of
// data; seed draws the chunk sizes and a checkpoint cut.
func FuzzGaussianMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, width, flags uint8, seed int64) {
		w := 3 + int(width)%65
		emitFull := flags&1 != 0
		var top, bottom []byte
		if flags&2 != 0 && len(data) >= w {
			top, data = data[:w], data[w:]
		}
		if flags&4 != 0 && len(data) >= w {
			bottom, data = data[:w], data[w:]
		}
		params := GaussianParamsHalo(uint32(w), emitFull, top, bottom)
		want := refGaussianResult(data, w, emitFull, top, bottom)
		rng := rand.New(rand.NewSource(seed))
		if got := runChunked(t, "gaussian2d", params, data, randomSizes(rng, len(data), w)); !bytes.Equal(got, want) {
			t.Fatalf("chunked: got %x, want %x", got, want)
		}
		if got := runWithMigration(t, "gaussian2d", params, data, rng.Intn(len(data)+1)); !bytes.Equal(got, want) {
			t.Fatalf("migrated: got %x, want %x", got, want)
		}
	})
}

// In steady state a kernel allocates nothing per chunk: the runtime
// feeds 1 MiB chunks, and clients send 1024-pixel rows.
func TestKernelsAllocateNothingPerChunk(t *testing.T) {
	chunk := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(chunk)
	for _, tc := range []struct {
		op     string
		params []byte
	}{
		{"gaussian2d", GaussianParams(1024, false)},
		{"sum8", nil},
	} {
		k, err := New(tc.op)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.Configure(tc.params); err != nil {
			t.Fatal(err)
		}
		if err := k.Process(chunk); err != nil { // fills the row buffers
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if err := k.Process(chunk); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per 1 MiB Process, want 0", tc.op, allocs)
		}
	}
}

// A checkpoint whose rows do not match its width is refused rather than
// restored into a window the filter would index out of range.
func TestGaussianRestoreRejectsMismatchedRows(t *testing.T) {
	for _, tc := range []struct {
		name  string
		apply func(s *State)
	}{
		{"short cur", func(s *State) { s.PutBytes("cur", make([]byte, 5)) }},
		{"long partial", func(s *State) { s.PutBytes("rowPartial", make([]byte, 8)) }},
		{"prev without cur", func(s *State) { s.PutBytes("prev", make([]byte, 8)); s.PutBytes("cur", nil) }},
		{"narrow", func(s *State) { s.PutInt64("width", 2) }},
	} {
		k := &gaussian2d{}
		if err := k.Configure(GaussianParams(8, false)); err != nil {
			t.Fatal(err)
		}
		if err := k.Process(make([]byte, 12)); err != nil {
			t.Fatal(err)
		}
		raw, err := k.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		s, err := DecodeState("gaussian2d", raw)
		if err != nil {
			t.Fatal(err)
		}
		tc.apply(s)
		if raw, err = s.Encode("gaussian2d"); err != nil {
			t.Fatal(err)
		}
		if err := (&gaussian2d{}).Restore(raw); err == nil {
			t.Errorf("%s: corrupt checkpoint restored", tc.name)
		}
	}
}
