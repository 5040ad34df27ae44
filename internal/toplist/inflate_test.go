package toplist

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math/bits"
	"math/rand"
	"strings"
	"testing"
)

// frame wraps a raw DEFLATE body in a gzip header with no optional
// fields and a trailer holding the CRC-32 and ISIZE of content.
func frame(body, content []byte) []byte {
	doc := []byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 0xff}
	doc = append(doc, body...)
	doc = binary.LittleEndian.AppendUint32(doc, crc32.ChecksumIEEE(content))
	return binary.LittleEndian.AppendUint32(doc, uint32(len(content)))
}

// flateReference inflates body with compress/flate, reading it as
// compress/gzip does inside a document, and reports whether the stream
// is valid and ends in the last byte of body. The output is cut after
// inflateMaxOutput+1 bytes.
func flateReference(body []byte) (out []byte, complete bool) {
	r := bytes.NewReader(body)
	out, err := io.ReadAll(io.LimitReader(flate.NewReader(r), inflateMaxOutput+1))
	return out, err == nil && r.Len() == 0 && len(out) <= inflateMaxOutput
}

// rawDeflate compresses data at level with compress/flate.
func rawDeflate(tb testing.TB, data []byte, level int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	zw, err := flate.NewWriter(&buf, level)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := zw.Write(data); err != nil {
		tb.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// csvBytes is l as WriteCSV writes it.
func csvBytes(tb testing.TB, l *List) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, l); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// skewed returns n bytes whose symbol frequencies halve from one byte
// value to the next, so a dynamic block codes the rare ones in 15 bits
// and its tables need sub-tables.
func skewed(n int) []byte {
	rng := rand.New(rand.NewSource(1))
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(bits.TrailingZeros32(rng.Uint32() | 1<<24))
	}
	return out
}

// TestEncodeSnapshotTakesFastPath: every document EncodeSnapshot
// writes is one the fast path inflates and parses in place, to
// WriteCSV's bytes and the list's names, and its bytes are those of
// WriteCSV streamed into a fresh gzip.Writer, the encode every writer
// ran before, so stored content hashes do not change.
func TestEncodeSnapshotTakesFastPath(t *testing.T) {
	for _, n := range []int{0, 1, 3000} {
		l := syntheticList("fast", n)
		doc, err := EncodeSnapshot(l)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(doc, gzipDoc(t, l)) {
			t.Fatalf("%d names: EncodeSnapshot's bytes differ from gzip.NewWriter + WriteCSV", n)
		}
		var d decoder
		text, ok := d.inf.gunzip(doc)
		if !ok {
			t.Fatalf("%d names: the fast path declined EncodeSnapshot's document", n)
		}
		if !bytes.Equal(text, csvBytes(t, l)) {
			t.Fatalf("%d names: inflated %q, want WriteCSV's bytes", n, text)
		}
		got, ok := d.parseCanonical(text)
		if !ok {
			t.Fatalf("%d names: the in-place parse declined WriteCSV's lines", n)
		}
		if diff := sameDecode(got, nil, l, nil); diff != "" {
			t.Fatalf("%d names: %s", n, diff)
		}
	}
}

// FuzzInflate holds the fast path to compress/flate on arbitrary
// DEFLATE bodies. Each body is framed with the CRC-32 and ISIZE of what
// compress/flate inflates from it (up to its error, if any), so a wrong
// decode can never hide behind a checksum mismatch. The fast path must
// decline every body compress/flate rejects or does not end exactly at
// the trailer, inflate what it accepts to compress/flate's bytes, and
// accept every body compress/flate inflates whole within the size
// bound.
func FuzzInflate(f *testing.F) {
	// Small seeds keep the fuzzer's minimization of what it finds short.
	csv := csvBytes(f, syntheticList("inflate", 100))
	for _, level := range []int{flate.NoCompression, flate.BestSpeed, flate.DefaultCompression, flate.BestCompression, flate.HuffmanOnly} {
		f.Add(rawDeflate(f, csv, level))
	}
	f.Add(rawDeflate(f, csvBytes(f, syntheticList("one", 1)), flate.DefaultCompression))
	f.Add(rawDeflate(f, nil, flate.DefaultCompression))
	f.Add(rawDeflate(f, skewed(1<<12), flate.DefaultCompression))
	f.Add(rawDeflate(f, bytes.Repeat([]byte("ab"), 1<<10), flate.BestCompression))
	for _, tc := range ruleCases() {
		f.Add(tc.bad)
		f.Add(tc.good)
	}
	f.Add([]byte{})
	f.Add([]byte{0x03, 0x00})

	f.Fuzz(func(t *testing.T, body []byte) {
		want, complete := flateReference(body)
		if len(want) > inflateMaxOutput {
			return // past the bound the test frames nothing
		}
		var inf inflater
		got, ok := inf.gunzip(frame(body, want))
		switch {
		case ok && !complete:
			t.Fatalf("accepted a body compress/flate rejects (%d bytes inflated)", len(got))
		case ok && !bytes.Equal(got, want):
			t.Fatalf("inflated %d bytes that differ from compress/flate's %d", len(got), len(want))
		case !ok && complete && uint64(len(want)) <= deflateMaxRatio*uint64(len(body)):
			t.Fatalf("declined a body compress/flate inflates whole (%d bytes)", len(want))
		}
	})
}

// bitWriter writes a DEFLATE stream by hand, for the streams no
// compressor emits.
type bitWriter struct {
	buf []byte
	acc uint64
	n   uint
}

// bits writes the low n bits of v, least significant first.
func (w *bitWriter) bits(v uint64, n uint) *bitWriter {
	w.acc |= v << w.n
	for w.n += n; w.n >= 8; w.n -= 8 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc >>= 8
	}
	return w
}

// code writes an n-bit Huffman code, most significant bit first.
func (w *bitWriter) code(c uint64, n uint) *bitWriter {
	return w.bits(uint64(bits.Reverse16(uint16(c))>>(16-n)), n)
}

// bytes pads the stream to a byte boundary and returns it.
func (w *bitWriter) bytes() []byte {
	if w.n > 0 {
		w.bits(0, 8-w.n)
	}
	return w.buf
}

// fixed writes literal/length symbol sym in the fixed code.
func (w *bitWriter) fixed(sym int) *bitWriter {
	switch {
	case sym < 144:
		return w.code(uint64(0x30+sym), 8)
	case sym < 256:
		return w.code(uint64(0x190+sym-144), 9)
	case sym < 280:
		return w.code(uint64(sym-256), 7)
	}
	return w.code(uint64(0xc0+sym-280), 8)
}

// text writes the literals of s in the fixed code.
func (w *bitWriter) text(s string) *bitWriter {
	for i := range len(s) {
		w.fixed(int(s[i]))
	}
	return w
}

// stored writes a block of type typ, BFINAL final, laid out as a
// stored block holding s with nlen as its NLEN.
func (w *bitWriter) stored(final, typ uint64, s string, nlen uint16) []byte {
	w.bits(final, 1).bits(typ, 2)
	buf := w.bytes()
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	buf = binary.LittleEndian.AppendUint16(buf, nlen)
	return append(buf, s...)
}

// canonical returns the codes RFC 1951 §3.2.2 assigns to lengths.
func canonical(lengths []uint8) []uint64 {
	var count, next [16]uint64
	for _, n := range lengths {
		count[n]++
	}
	count[0] = 0
	for n := 1; n < 16; n++ {
		next[n] = (next[n-1] + count[n-1]) << 1
	}
	codes := make([]uint64, len(lengths))
	for sym, n := range lengths {
		if n > 0 {
			codes[sym] = next[n]
			next[n]++
		}
	}
	return codes
}

// caseText is what every rule case's stream means to a lenient decoder:
// one valid snapshot line, so only the broken rule can reject it.
const caseText = "1,a\n"

// caseLits returns nlit literal/length code lengths coding caseText's
// bytes and the end of block as a complete code.
func caseLits(nlit int) []uint8 {
	lens := make([]uint8, nlit)
	lens['\n'], lens[','] = 3, 3
	lens['1'], lens['a'], lens[256] = 2, 2, 2
	return lens
}

// dynamic writes a final dynamic block coding caseText under the given
// code lengths. The code-length code gives symbols 0-14 and 16 four
// bits each; with repeatFirst the first three lengths (zero) are sent
// as a repeat code 16, which must have a previous length to repeat.
func dynamic(lits, dists []uint8, repeatFirst bool) []byte {
	var w bitWriter
	w.bits(1, 1).bits(2, 2)
	w.bits(uint64(len(lits)-257), 5).bits(uint64(len(dists)-1), 5).bits(19-4, 4)
	for _, sym := range codeOrder {
		n := uint64(4)
		if sym == 15 || sym == 17 || sym == 18 {
			n = 0
		}
		w.bits(n, 3)
	}
	lens := append(append([]uint8(nil), lits...), dists...)
	if repeatFirst {
		w.code(15, 4).bits(0, 2)
		lens = lens[3:]
	}
	for _, n := range lens {
		w.code(uint64(n), 4)
	}
	codes := canonical(lits)
	for _, c := range []byte(caseText) {
		w.code(codes[c], uint(lits[c]))
	}
	w.code(codes[256], uint(lits[256]))
	return w.bytes()
}

// fixedCopy writes a final fixed block: caseText, a copy of 3 bytes
// from distance code dcode with extra bits extra, and the end of block.
func fixedCopy(dcode, extra uint64, nextra uint) []byte {
	var w bitWriter
	w.bits(1, 1).bits(1, 2).text(caseText).fixed(257).code(dcode, 5).bits(extra, nextra).fixed(256)
	return w.bytes()
}

// fixedSym writes a final fixed block: caseText, then sym when it is
// not 256, then the end of block.
func fixedSym(sym int) []byte {
	var w bitWriter
	w.bits(1, 1).bits(1, 2).text(caseText)
	if sym != 256 {
		w.fixed(sym)
	}
	return w.fixed(256).bytes()
}

type ruleCase struct {
	name    string
	bad     []byte // breaks the rule, and only it
	lenient string // what a decoder without the rule makes of bad
	good    []byte // the same stream keeping the rule
}

// ruleCases returns one case per compress/flate rule the fast path
// mirrors.
func ruleCases() []ruleCase {
	lits := caseLits(maxNumLit)
	nlen := ^uint16(len(caseText))
	stored := func(final, typ uint64, nlen uint16) []byte {
		return new(bitWriter).stored(final, typ, caseText, nlen)
	}
	return []ruleCase{
		{"incomplete code", dynamic(lits, []uint8{2, 2}, false), caseText, dynamic(lits, []uint8{1}, false)},
		{"over-subscribed code", dynamic(lits, []uint8{1, 1, 1}, false), caseText, dynamic(lits, []uint8{1, 1}, false)},
		{"HLIT > 286", dynamic(caseLits(maxNumLit+1), []uint8{1}, false), caseText, dynamic(lits, []uint8{1}, false)},
		{"HDIST > 30", dynamic(lits, make([]uint8, maxNumDist+1), false), caseText, dynamic(lits, make([]uint8, maxNumDist), false)},
		{"repeat code 16 first", dynamic(lits, []uint8{1}, true), caseText, dynamic(lits, []uint8{1}, false)},
		{"literal/length 286", fixedSym(286), caseText, fixedSym(256)},
		{"literal/length 287", fixedSym(287), caseText, fixedSym(256)},
		{"distance code 30", fixedCopy(30, 0, 0), caseText, fixedCopy(3, 0, 0)},
		{"distance code 31", fixedCopy(31, 0, 0), caseText, fixedCopy(3, 0, 0)},
		// Distance 5 from the fifth byte; zlib's lenient mode reads
		// the byte before the output as zero.
		{"distance before the output", fixedCopy(4, 0, 1), caseText + "\x001,", fixedCopy(3, 0, 0)},
		{"stored NLEN mismatch", stored(1, 0, nlen^1), caseText, stored(1, 0, nlen)},
		{"block type 3", stored(1, 3, nlen), caseText, stored(1, 0, nlen)},
		{"stream ends before the trailer", append(fixedSym(256), 0), caseText, fixedSym(256)},
		{"stream runs into the trailer", stored(0, 0, nlen), caseText, stored(1, 0, nlen)},
	}
}

// TestFastPathMirrorsFlateRules: for each rule compress/flate enforces,
// a body that breaks only that rule is declined by the fast path,
// though framed with the CRC-32 and ISIZE of what a decoder without the
// rule would inflate, and DecodeSnapshot returns compress/gzip's error
// for it. The same stream keeping the rule is accepted, so the case
// tests the rule and not the stream around it.
func TestFastPathMirrorsFlateRules(t *testing.T) {
	for _, tc := range ruleCases() {
		t.Run(tc.name, func(t *testing.T) {
			want, complete := flateReference(tc.good)
			if !complete || !strings.HasPrefix(string(want), caseText) {
				t.Fatalf("control: compress/flate inflates %q (complete %v)", want, complete)
			}
			var inf inflater
			if got, ok := inf.gunzip(frame(tc.good, want)); !ok || !bytes.Equal(got, want) {
				t.Fatalf("control: fast path gave %q, %v; want %q", got, ok, want)
			}

			if _, complete := flateReference(tc.bad); complete {
				t.Fatal("compress/flate accepts the case: it breaks no rule")
			}
			doc := frame(tc.bad, []byte(tc.lenient))
			if got, ok := inf.gunzip(doc); ok {
				t.Fatalf("fast path accepted the case, inflating %q", got)
			}
			l, err := DecodeSnapshot(doc)
			ref, refErr := referenceDecode(doc)
			if refErr == nil {
				t.Fatal("compress/gzip accepts the case")
			}
			if diff := sameDecode(l, err, ref, refErr); diff != "" {
				t.Fatal(diff)
			}
		})
	}
}

// gzipLevel encodes data as a gzip document at level, under header.
func gzipLevel(tb testing.TB, data []byte, level int, header gzip.Header) []byte {
	tb.Helper()
	var buf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&buf, level)
	if err != nil {
		tb.Fatal(err)
	}
	zw.Header = header
	if _, err := zw.Write(data); err != nil {
		tb.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDecodeSnapshot holds DecodeSnapshot to compress/gzip and
// referenceReadCSV on arbitrary bytes: it accepts exactly what they
// accept, with the same names, and rejects the rest with their error.
func FuzzDecodeSnapshot(f *testing.F) {
	csv := csvBytes(f, syntheticList("decode", 3000))
	doc := gzipLevel(f, csv, gzip.DefaultCompression, gzip.Header{})
	f.Add(doc)
	for _, level := range []int{gzip.NoCompression, gzip.BestSpeed, gzip.BestCompression, gzip.HuffmanOnly} {
		f.Add(gzipLevel(f, csv, level, gzip.Header{}))
	}
	small := gzipLevel(f, []byte("1,a.com\n2,b.com\n"), gzip.DefaultCompression, gzip.Header{})
	f.Add(gzipLevel(f, []byte("1,a.com\n"), gzip.DefaultCompression, gzip.Header{}))
	f.Add(gzipLevel(f, nil, gzip.DefaultCompression, gzip.Header{}))
	f.Add(append(bytes.Clone(small), small...))
	f.Add(append(bytes.Clone(small), "junk"...))
	f.Add(gzipLevel(f, []byte("1,a.com\n2,b.com\n"), gzip.DefaultCompression, gzip.Header{Name: "top-1m.csv"}))
	for _, at := range []int{8, 4} { // the trailer's CRC-32, then its ISIZE
		bad := bytes.Clone(small)
		bad[len(bad)-at] ^= 1
		f.Add(bad)
	}
	for _, text := range []string{
		"01,a.com\n",
		"1,a.com\r\n2,b.com\r\n",
		" 1,a.com\n",
		"1, a.com\n",
		"1,a.com \n",
		"1,a.com\t\n",
		"1,\u00a0a.com\n",
		"1,a.com\u2003\n",
		"1,\u00e9.com\n",
		"1,a.com\n\n2,b.com\n",
		"1,a.com\n2,b.com",
		"1,\n",
		"2,a.com\n",
		"1,a.com\n1,b.com\n",
		"1;a.com\n",
		// Lines at the 1 MiB bound: a last line without a newline
		// of exactly 1 MiB, then lines of 1 MiB and 1 MiB + 1 with
		// their newline.
		"1,a.com\n2," + strings.Repeat("b", decodeMaxLine-2),
		"1," + strings.Repeat("a", decodeMaxLine-3) + "\n",
		"1," + strings.Repeat("a", decodeMaxLine-2) + "\n",
	} {
		f.Add(gzipLevel(f, []byte(text), gzip.DefaultCompression, gzip.Header{}))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := DecodeSnapshot(data)
		ref, refErr := referenceDecode(data)
		if diff := sameDecode(l, err, ref, refErr); diff != "" {
			t.Fatalf("DecodeSnapshot disagrees with the reference: %s", diff)
		}
	})
}
