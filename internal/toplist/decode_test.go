package toplist

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// gzipDoc encodes l as a stored snapshot document, the way a DiskStore
// writes one.
func gzipDoc(t testing.TB, l *List) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := WriteCSV(zw, l); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// syntheticList returns n distinct names of realistic length, varied by
// tag so two lists share no name.
func syntheticList(tag string, n int) *List {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("www.site%05d-%s.example.com", i, tag)
	}
	return New(names)
}

// TestDecodedListsDoNotAlias: a decoded list's names never share
// memory with the pooled decode state. It decodes document A, keeps
// one of its names, then decodes other documents from 8 goroutines
// (reusing every pooled decoder many times over) and checks A and the
// kept name are unchanged. A decoder that handed out strings over its
// pooled arena would see them overwritten here. Every document is
// encoded before A is decoded: the encoders' garbage would otherwise
// let a GC empty the pool in between.
func TestDecodedListsDoNotAlias(t *testing.T) {
	want := syntheticList("a", 3000)
	docA := gzipDoc(t, want)
	others := make([][]byte, 8)
	for i := range others {
		others[i] = gzipDoc(t, syntheticList(fmt.Sprintf("other%d", i), 3000))
	}
	wantNames := want.Names()
	a, err := DecodeSnapshot(docA)
	if err != nil {
		t.Fatal(err)
	}
	kept := a.Name(1500)
	wantKept := strings.Clone(kept)
	var wg sync.WaitGroup
	errs := make(chan error, len(others))
	for _, doc := range others {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 25 {
				if _, err := DecodeSnapshot(doc); err != nil {
					errs <- err
					return
				}
				if _, err := ReadCSV(strings.NewReader("1,x.com\n2,y.com\n")); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if kept != wantKept {
		t.Fatalf("kept name changed to %q, want %q", kept, wantKept)
	}
	if a.Len() != len(wantNames) {
		t.Fatalf("list A has %d names, want %d", a.Len(), len(wantNames))
	}
	for r, name := range wantNames {
		if got := a.Name(r + 1); got != name {
			t.Fatalf("list A rank %d changed to %q, want %q", r+1, got, name)
		}
	}
}

// TestDecodeSnapshotAllocs bounds what one decode allocates: per
// document, not per line (the per-name decoder did 3,029 allocations
// for this document).
func TestDecodeSnapshotAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	doc := gzipDoc(t, syntheticList("allocs", 3000))
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := DecodeSnapshot(doc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Fatalf("DecodeSnapshot of 3,000 lines made %.1f allocations, want <= 16", allocs)
	}
}

// TestDecodeSnapshotMatchesReference holds DecodeSnapshot to the
// decode it replaced (gzip.NewReader, then referenceReadCSV) on every
// truncation and every single-byte flip of a small document, so
// damaged documents are rejected with the same error or accepted with
// the same names.
func TestDecodeSnapshotMatchesReference(t *testing.T) {
	doc := gzipDoc(t, syntheticList("ref", 40))
	check := func(what string, data []byte) {
		t.Helper()
		l, err := DecodeSnapshot(data)
		ref, refErr := referenceDecode(data)
		if diff := sameDecode(l, err, ref, refErr); diff != "" {
			t.Fatalf("%s: %s", what, diff)
		}
	}
	for n := 0; n <= len(doc); n++ {
		check(fmt.Sprintf("first %d bytes", n), doc[:n])
	}
	for i := range doc {
		for _, mask := range []byte{0x01, 0x80} {
			flipped := bytes.Clone(doc)
			flipped[i] ^= mask
			check(fmt.Sprintf("byte %d ^ %#x", i, mask), flipped)
		}
	}
	check("trailing garbage", append(bytes.Clone(doc), "junk"...))
	check("two members", append(bytes.Clone(doc), doc...))
}

// BenchmarkDecodeSnapshot decodes one 3,000-name document per op.
func BenchmarkDecodeSnapshot(b *testing.B) {
	doc := gzipDoc(b, syntheticList("bench", 3000))
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := DecodeSnapshot(doc); err != nil {
			b.Fatal(err)
		}
	}
}
