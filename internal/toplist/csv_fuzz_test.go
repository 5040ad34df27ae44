package toplist

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
)

// referenceReadCSV is the Scanner-based ReadCSV the pooled decoder
// replaced, kept verbatim: one string per name, strings.TrimSpace per
// line. FuzzReadCSV holds the decoder to its accept/reject decisions,
// names and error strings.
func referenceReadCSV(r io.Reader) (*List, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var names []string
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		comma := strings.IndexByte(line, ',')
		if comma < 0 {
			return nil, fmt.Errorf("toplist: line %d: missing comma: %q", lineNo, line)
		}
		rank, err := strconv.Atoi(line[:comma])
		if err != nil {
			return nil, fmt.Errorf("toplist: line %d: bad rank: %w", lineNo, err)
		}
		if rank != len(names)+1 {
			return nil, fmt.Errorf("toplist: line %d: rank %d out of order (want %d)", lineNo, rank, len(names)+1)
		}
		name := strings.TrimSpace(line[comma+1:])
		if name == "" {
			return nil, fmt.Errorf("toplist: line %d: empty domain", lineNo)
		}
		names = append(names, name)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return New(names), nil
}

// referenceDecode is the snapshot decode DecodeSnapshot is held to:
// compress/gzip, then referenceReadCSV.
func referenceDecode(data []byte) (*List, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	defer zr.Close()
	return referenceReadCSV(zr)
}

// sameDecode reports how got differs from want, two decodes of the
// same input ("" when they agree): both reject with the same error
// string, or both accept with the same names in the same order.
func sameDecode(got *List, gotErr error, want *List, wantErr error) string {
	switch {
	case (gotErr == nil) != (wantErr == nil):
		return fmt.Sprintf("error %v, reference error %v", gotErr, wantErr)
	case gotErr != nil:
		if gotErr.Error() != wantErr.Error() {
			return fmt.Sprintf("error %q, reference error %q", gotErr, wantErr)
		}
		return ""
	case got.Len() != want.Len():
		return fmt.Sprintf("%d names, reference %d", got.Len(), want.Len())
	}
	for r := 1; r <= got.Len(); r++ {
		if got.Name(r) != want.Name(r) {
			return fmt.Sprintf("rank %d is %q, reference %q", r, got.Name(r), want.Name(r))
		}
	}
	return ""
}

// FuzzReadCSV asserts the snapshot parser never panics on arbitrary
// input, decides, names and errors exactly like referenceReadCSV, and
// that accepted documents survive a write/read round trip.
func FuzzReadCSV(f *testing.F) {
	f.Add("1,google.com\n2,facebook.com\n")
	f.Add("1,a.com\n\n\n2,b.com\n")
	f.Add("")
	f.Add("1;semicolon.com\n")
	f.Add("0,zero-rank.com\n")
	f.Add("1,\n")
	f.Add("notanumber,x.com\n")
	f.Add("1," + strings.Repeat("x", 300) + ".com\n")
	f.Add("1,a.com\r\n2,b.com\r\n")
	f.Add("1,a.com\n2,b.com")
	f.Add("\n \t\n1,a.com\n\r\n  \n2,b.com\n\n")
	f.Add("  1 , a.com \n\t2,\tb.com \n")
	f.Add("1,a.com\n2," + strings.Repeat("y", 70<<10) + "\n3,c.com\n")
	f.Add("1,a.com\n2," + strings.Repeat("z", 1<<20) + "\n")
	f.Add("+1,a.com\n02,b.com\n")
	f.Add("01,a.com\n")
	f.Add("-1,a.com\n")
	f.Add("99999999999999999999,a.com\n")

	f.Fuzz(func(t *testing.T, input string) {
		l, err := ReadCSV(strings.NewReader(input))
		ref, refErr := referenceReadCSV(strings.NewReader(input))
		if diff := sameDecode(l, err, ref, refErr); diff != "" {
			t.Fatalf("ReadCSV disagrees with the reference: %s", diff)
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, l); err != nil {
			t.Fatalf("WriteCSV of accepted list: %v", err)
		}
		l2, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("re-read of written list: %v\n%s", err, buf.String())
		}
		if l.Len() != l2.Len() {
			t.Fatalf("round trip changed length: %d vs %d", l.Len(), l2.Len())
		}
		for r := 1; r <= l.Len(); r++ {
			if l.Name(r) != l2.Name(r) {
				t.Fatalf("round trip changed rank %d: %q vs %q", r, l.Name(r), l2.Name(r))
			}
		}
	})
}
