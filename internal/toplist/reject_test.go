package toplist_test

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/listserv"
	"repro/internal/toplist"
)

// TestDamagedDocumentsRejectedAlike pins how every read path rejects a
// damaged snapshot document: DecodeSnapshot and listserv.Decode return
// the errors below (recorded from the per-line decoder the pooled one
// replaced), and a DiskStore holding the document reads the slot as nil
// and lists it as corrupt.
func TestDamagedDocumentsRejectedAlike(t *testing.T) {
	names := make([]string, 200)
	for i := range names {
		names[i] = fmt.Sprintf("www.site%03d.example.com", i)
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := toplist.WriteCSV(zw, toplist.New(names)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	doc := buf.Bytes()
	badCRC := bytes.Clone(doc)
	badCRC[len(badCRC)-8] ^= 0xff // first byte of the CRC-32 trailer

	for _, tc := range []struct {
		name        string
		data        []byte
		err         string // from DecodeSnapshot
		listservErr string // from listserv.Decode(data, FormatGzip)
	}{
		{"truncated", doc[:len(doc)/2], "unexpected EOF", "unexpected EOF"},
		{"flipped CRC byte", badCRC, "gzip: invalid checksum", "gzip: invalid checksum"},
		{"not gzip", []byte("1,a.com\n2,b.com\n"), "gzip: invalid header", "listserv: gzip: gzip: invalid header"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if l, err := toplist.DecodeSnapshot(tc.data); err == nil || err.Error() != tc.err {
				t.Errorf("DecodeSnapshot = (%v, %v), want error %q", l, err, tc.err)
			}
			if l, err := listserv.Decode(tc.data, listserv.FormatGzip); err == nil || err.Error() != tc.listservErr {
				t.Errorf("listserv.Decode = (%v, %v), want error %q", l, err, tc.listservErr)
			}

			dir := t.TempDir()
			ds, err := toplist.CreateDiskStore(dir, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := ds.Put("alexa", 0, toplist.New(names)); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "alexa", toplist.Day(0).String()+".csv.gz")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			reopened, err := toplist.OpenArchive(dir)
			if err != nil {
				t.Fatal(err)
			}
			if l := reopened.Get("alexa", 0); l != nil {
				t.Errorf("DiskStore.Get decoded a damaged document (%d names)", l.Len())
			}
			if got := reopened.Corrupt(); len(got) != 1 || got[0].Provider != "alexa" || got[0].Day != 0 {
				t.Errorf("DiskStore.Corrupt = %v, want alexa day 0", got)
			}
		})
	}
}
