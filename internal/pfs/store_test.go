package pfs

import (
	"bytes"
	"path/filepath"
	"testing"
	"testing/quick"
)

// storeImpls builds one of each store implementation for shared tests.
func storeImpls(t *testing.T) map[string]Store {
	t.Helper()
	// Small extents so multi-extent paths get exercised by ordinary ops.
	es, err := NewExtentStore(ExtentConfig{Dir: filepath.Join(t.TempDir(), "ext"), ExtentSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { es.Close() })
	return map[string]Store{
		"mem":    NewMemStore(),
		"extent": es,
	}
}

func TestStoreBasics(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			const h = 42
			if got := s.Size(h); got != 0 {
				t.Fatalf("empty size = %d", got)
			}
			if _, err := s.WriteAt(h, []byte("hello"), 0); err != nil {
				t.Fatal(err)
			}
			if _, err := s.WriteAt(h, []byte("world"), 10); err != nil {
				t.Fatal(err)
			}
			if got := s.Size(h); got != 15 {
				t.Fatalf("size = %d, want 15", got)
			}
			buf := make([]byte, 15)
			n, err := s.ReadAt(h, buf, 0)
			if err != nil || n != 15 {
				t.Fatalf("read = %d, %v", n, err)
			}
			want := append([]byte("hello"), 0, 0, 0, 0, 0)
			want = append(want, []byte("world")...)
			if !bytes.Equal(buf, want) {
				t.Fatalf("read %q, want %q (holes read as zeros)", buf, want)
			}

			// Reads past the end are short, not errors.
			n, err = s.ReadAt(h, buf, 12)
			if err != nil || n != 3 {
				t.Fatalf("tail read = %d, %v; want 3, nil", n, err)
			}
			n, err = s.ReadAt(h, buf, 100)
			if err != nil || n != 0 {
				t.Fatalf("past-end read = %d, %v; want 0, nil", n, err)
			}

			if err := s.Truncate(h, 5); err != nil {
				t.Fatal(err)
			}
			if got := s.Size(h); got != 5 {
				t.Fatalf("after truncate size = %d", got)
			}
			if err := s.Remove(h); err != nil {
				t.Fatal(err)
			}
			if got := s.Size(h); got != 0 {
				t.Fatalf("after remove size = %d", got)
			}
			// Removing again is fine.
			if err := s.Remove(h); err != nil {
				t.Fatalf("double remove: %v", err)
			}
		})
	}
}

func TestStoreIsolationBetweenHandles(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			s.WriteAt(1, []byte("one"), 0)
			s.WriteAt(2, []byte("twotwo"), 0)
			if s.Size(1) != 3 || s.Size(2) != 6 {
				t.Fatalf("sizes = %d, %d", s.Size(1), s.Size(2))
			}
			s.Remove(1)
			if s.Size(2) != 6 {
				t.Fatal("removing handle 1 disturbed handle 2")
			}
		})
	}
}

// Property: mem and extent stores agree on any sequence of writes
// followed by reads.
func TestStoresAgreeProperty(t *testing.T) {
	type op struct {
		Off  uint16
		Data []byte
	}
	es, err := NewExtentStore(ExtentConfig{Dir: filepath.Join(t.TempDir(), "agree")})
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	ms := NewMemStore()
	var handle uint64
	f := func(ops []op, readOff uint16, readLen uint8) bool {
		handle++
		for _, o := range ops {
			if len(o.Data) > 512 {
				o.Data = o.Data[:512]
			}
			ms.WriteAt(handle, o.Data, uint64(o.Off))
			es.WriteAt(handle, o.Data, uint64(o.Off))
		}
		if ms.Size(handle) != es.Size(handle) {
			return false
		}
		a := make([]byte, readLen)
		b := make([]byte, readLen)
		na, _ := ms.ReadAt(handle, a, uint64(readOff))
		nb, _ := es.ReadAt(handle, b, uint64(readOff))
		return na == nb && bytes.Equal(a[:na], b[:nb])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
