package toplist

import (
	"encoding/binary"
	"hash/crc32"
	"math/bits"
)

// This file is DecodeSnapshot's fast path: a gzip decoder for a whole
// document held in memory. It takes only the documents every writer
// here emits — one member, a header with no optional fields — and
// inflates one into a single buffer sized from the trailer, with no
// window, no Read copies and no interface call per input byte.
//
// compress/gzip stays the reference: a document the fast path declines
// goes through it unchanged, so it alone decides every rejection and
// its error. The fast path therefore accepts exactly what
// compress/flate accepts: complete Huffman codes (or a single code of
// length 1, or none), at most 286 literal/length and 30 distance
// codes, no repeat of a previous length before the first one, no
// literal/length symbol 286 or 287, no distance code 30 or 31, no
// distance reaching before the start of the output, and a stored
// block's NLEN the complement of its LEN. The stream must end exactly
// at the trailer, and the trailer's CRC-32 and ISIZE must match.

const (
	gzipHeaderLen  = 10
	gzipTrailerLen = 8

	// inflateMaxOutput caps the document the fast path sizes one
	// buffer for; a larger one streams through compress/gzip.
	inflateMaxOutput = 16 << 20
	// deflateMaxRatio is DEFLATE's largest expansion, a 258-byte match
	// coded in two bits: no valid stream inflates past it, so an ISIZE
	// that claims more is not worth a buffer.
	deflateMaxRatio = 1032

	maxNumLit  = 286 // literal/length codes a dynamic block may define
	maxNumDist = 30  // distance codes a dynamic block may define

	// The root widths of the two-level tables: codes up to this long
	// decode in one lookup, longer ones through a sub-table.
	litRootBits  = 10
	distRootBits = 8
	clenRootBits = 7 // code-length codes are at most 7 bits long
)

// A table entry is one decoded symbol: its code length in bits 0-3,
// its kind in bits 4-6, the count of extra bits that follow the code in
// bits 8-11, and its value in bits 16-31 (a literal byte, a base length
// or distance, a code-length symbol, or a link's sub-table offset).
// The zero entry is invalid, and so is any entry of kind 0: no code
// reaches it, or the symbol it names is one DEFLATE forbids.
const (
	kindLiteral = 1 << 4
	kindEnd     = 2 << 4
	kindBase    = 3 << 4
	kindLink    = 4 << 4
	kindMask    = 7 << 4
)

// RFC 1951 §3.2.5: the base values and extra-bit counts of
// literal/length symbols 257-285 and distance codes 0-29.
var (
	lengthBase  = [29]uint16{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lengthExtra = [29]uint8{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase    = [30]uint16{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
	distExtra   = [30]uint8{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}

	// codeOrder is the order of the code-length code's lengths (§3.2.7).
	codeOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
)

// The entries of each alphabet's symbols, less the code length. The
// fixed code's literal/length symbols 286-287 and distance codes 30-31
// stay zero, hence invalid.
var litPayload, distPayload, clenPayload = payloads()

func payloads() (lit [288]uint32, dist [32]uint32, clen [19]uint32) {
	for sym := range 256 {
		lit[sym] = kindLiteral | uint32(sym)<<16
	}
	lit[256] = kindEnd
	for i, base := range lengthBase {
		lit[257+i] = kindBase | uint32(lengthExtra[i])<<8 | uint32(base)<<16
	}
	for i, base := range distBase {
		dist[i] = kindBase | uint32(distExtra[i])<<8 | uint32(base)<<16
	}
	for sym := range clen {
		clen[sym] = kindLiteral | uint32(sym)<<16
	}
	return lit, dist, clen
}

// The fixed Huffman code of block type 1 (§3.2.6).
var fixedLit, fixedDist = fixedTables()

func fixedTables() (lit, dist huffTable) {
	var lens [288]uint8
	for sym := range lens {
		switch {
		case sym < 144:
			lens[sym] = 8
		case sym < 256:
			lens[sym] = 9
		case sym < 280:
			lens[sym] = 7
		default:
			lens[sym] = 8
		}
	}
	lit.build(lens[:], litPayload[:], litRootBits)
	var distLens [32]uint8
	for i := range distLens {
		distLens[i] = 5
	}
	dist.build(distLens[:], distPayload[:], distRootBits)
	return lit, dist
}

// huffTable decodes one canonical Huffman code in at most two lookups:
// the root table is indexed by the next rootBits of input, and an entry
// for a longer code links to a sub-table indexed by the subBits after
// them. The sub-tables follow the root table in entries.
type huffTable struct {
	entries  []uint32
	rootBits uint
	subBits  uint
}

// build fills t from one alphabet's code lengths, payload holding each
// symbol's entry less its length. Like compress/flate it accepts a
// complete code, a single code of length 1 or no code at all, and
// reports false for anything else; in the last two cases the entries no
// code reaches stay invalid.
func (t *huffTable) build(lengths []uint8, payload []uint32, rootBits uint) bool {
	var count [16]int
	maxLen := uint(0)
	for _, n := range lengths {
		count[n]++
		maxLen = max(maxLen, uint(n))
	}
	var next [16]int
	code := 0
	for n := uint(1); n <= maxLen; n++ {
		code <<= 1
		next[n] = code
		code += count[n]
	}
	if maxLen > 0 && code != 1<<maxLen && (code != 1 || maxLen != 1) {
		return false
	}

	root := min(rootBits, maxLen)
	size := 1 << root
	// The root-width prefixes of the codes longer than root are the
	// last ones, from link on; each gets a sub-table wide enough for
	// the longest code.
	link, sub := size, uint(0)
	if maxLen > root {
		link, sub = next[root+1]>>1, maxLen-root
	}
	total := size + (size-link)<<sub
	if cap(t.entries) < total {
		t.entries = make([]uint32, total)
	}
	entries := t.entries[:total]
	t.entries, t.rootBits, t.subBits = entries, root, sub
	clear(entries[:size])
	for prefix := link; prefix < size; prefix++ {
		rev := bits.Reverse16(uint16(prefix)) >> (16 - root)
		entries[rev] = kindLink | uint32(size+(prefix-link)<<sub)<<16
	}
	for sym, n := range lengths {
		if n == 0 {
			continue
		}
		code := next[n]
		next[n]++
		rev := int(bits.Reverse16(uint16(code)) >> (16 - n))
		e := payload[sym] | uint32(n)
		if uint(n) <= root {
			for i := rev; i < size; i += 1 << n {
				entries[i] = e
			}
			continue
		}
		table := entries[entries[rev&(size-1)]>>16:]
		for i := rev >> root; i < 1<<sub; i += 1 << (uint(n) - root) {
			table[i] = e
		}
	}
	return true
}

// lookup returns the entry for the code at the bottom of b, which must
// hold at least as many input bits as the code's longest code.
func (t *huffTable) lookup(b uint64) uint32 {
	e := t.entries[b&(1<<t.rootBits-1)]
	if e&kindMask == kindLink {
		e = t.entries[uint(e>>16)+uint(b>>t.rootBits)&(1<<t.subBits-1)]
	}
	return e
}

// inflater is the pooled state of the fast path: the output buffer and
// the dynamic blocks' tables.
type inflater struct {
	out             []byte
	lit, dist, clen huffTable
	lens            [maxNumLit + maxNumDist]uint8
}

// gunzip returns the bytes of a single-member gzip document whose
// header has no optional fields (FLG = 0), inflated into f.out, or
// false when the document is any other or when compress/gzip would not
// read exactly these bytes from it without error. The returned bytes
// are f's until its next use.
func (f *inflater) gunzip(data []byte) ([]byte, bool) {
	if len(data) < gzipHeaderLen+gzipTrailerLen ||
		data[0] != 0x1f || data[1] != 0x8b || data[2] != 8 || data[3] != 0 {
		return nil, false
	}
	body := data[gzipHeaderLen : len(data)-gzipTrailerLen]
	trailer := data[len(data)-gzipTrailerLen:]
	size := binary.LittleEndian.Uint32(trailer[4:])
	if size > inflateMaxOutput || uint64(size) > deflateMaxRatio*uint64(len(body)) {
		return nil, false
	}
	if cap(f.out) < int(size) {
		f.out = make([]byte, size)
	}
	out := f.out[:size]
	if !f.inflate(body, out) || crc32.ChecksumIEEE(out) != binary.LittleEndian.Uint32(trailer) {
		return nil, false
	}
	return out, true
}

// inflate decodes the raw DEFLATE stream in into out and reports
// whether the stream is valid, fills out exactly, and ends in the last
// byte of in.
func (f *inflater) inflate(in, out []byte) bool {
	r := bitReader{in: in}
	p := 0
	for final := false; !final; {
		if !r.need(3) {
			return false
		}
		final = r.b&1 != 0
		typ := r.b >> 1 & 3
		r.consume(3)
		var ok bool
		switch typ {
		case 0:
			p, ok = r.stored(out, p)
		case 1:
			p, ok = r.huffmanBlock(&fixedLit, &fixedDist, out, p)
		case 2:
			if !f.readTables(&r) {
				return false
			}
			p, ok = r.huffmanBlock(&f.lit, &f.dist, out, p)
		}
		if !ok {
			return false
		}
	}
	return (r.consumed()+7)>>3 == len(in) && p == len(out)
}

// readTables reads a dynamic block's code definitions (§3.2.7) into
// f.lit and f.dist.
func (f *inflater) readTables(r *bitReader) bool {
	if !r.need(14) {
		return false
	}
	nlit := int(r.b&31) + 257
	ndist := int(r.b>>5&31) + 1
	nclen := int(r.b>>10&15) + 4
	r.consume(14)
	if nlit > maxNumLit || ndist > maxNumDist {
		return false
	}
	var clens [len(codeOrder)]uint8
	for _, sym := range codeOrder[:nclen] {
		if !r.need(3) {
			return false
		}
		clens[sym] = uint8(r.b & 7)
		r.consume(3)
	}
	if !f.clen.build(clens[:], clenPayload[:], clenRootBits) {
		return false
	}
	lens := f.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		if !r.need(7 + 7) { // the longest code, then repeat 18's extra bits
			return false
		}
		e := f.clen.lookup(r.b)
		if e&kindMask == 0 {
			return false
		}
		r.consume(uint(e & 15))
		sym := uint8(e >> 16)
		if sym < 16 {
			lens[i] = sym
			i++
			continue
		}
		var n int
		var length uint8
		switch sym {
		case 16:
			if i == 0 {
				return false
			}
			n, length = 3+int(r.b&3), lens[i-1]
			r.consume(2)
		case 17:
			n = 3 + int(r.b&7)
			r.consume(3)
		default:
			n = 11 + int(r.b&127)
			r.consume(7)
		}
		if n > len(lens)-i {
			return false
		}
		for range n {
			lens[i] = length
			i++
		}
	}
	return f.lit.build(lens[:nlit], litPayload[:], litRootBits) &&
		f.dist.build(lens[nlit:], distPayload[:], distRootBits)
}

// bitReader holds the input bits not yet consumed: the low nb bits of
// b, then in from pos on. Bits of b above nb are either zero or the
// input's own next bits. Past the end of in it loads zeros, and pos
// counts them as if they were input, so that consumed tells an overrun.
type bitReader struct {
	in  []byte
	b   uint64
	nb  uint
	pos int
}

// consumed is how many bits of in have been consumed, padding included.
func (r *bitReader) consumed() int { return 8*r.pos - int(r.nb) }

func (r *bitReader) consume(n uint) {
	r.b >>= n
	r.nb -= n
}

// need makes sure at least n (at most 56) bits are buffered. It reports
// false once more bits were consumed than in holds.
func (r *bitReader) need(n uint) bool {
	if r.nb >= n {
		return true
	}
	var ok bool
	r.b, r.nb, r.pos, ok = refill(r.in, r.b, r.nb, r.pos)
	return ok
}

// refill loads input until at least 56 bits are buffered: eight bytes
// at once while they last, then byte by byte with zeros past the end.
// It reports false once more bits were consumed than in holds.
func refill(in []byte, b uint64, nb uint, pos int) (uint64, uint, int, bool) {
	if pos+8 <= len(in) {
		b |= binary.LittleEndian.Uint64(in[pos:]) << nb
		return b, nb | 56, pos + int(63-nb)>>3, true
	}
	if 8*pos-int(nb) > 8*len(in) {
		return b, nb, pos, false
	}
	for ; nb <= 56; nb += 8 {
		if pos < len(in) {
			b |= uint64(in[pos]) << nb
		}
		pos++
	}
	return b, nb, pos, true
}

// stored copies a stored block (§3.2.4) into out at p.
func (r *bitReader) stored(out []byte, p int) (int, bool) {
	at := (r.consumed() + 7) >> 3
	if at > len(r.in)-4 {
		return p, false
	}
	n := int(binary.LittleEndian.Uint16(r.in[at:]))
	if binary.LittleEndian.Uint16(r.in[at+2:]) != ^uint16(n) {
		return p, false
	}
	at += 4
	if n > len(r.in)-at || n > len(out)-p {
		return p, false
	}
	p += copy(out[p:], r.in[at:at+n])
	r.b, r.nb, r.pos = 0, 0, at+n
	return p, true
}

// huffmanBlock decodes one Huffman-coded block (§3.2.5) into out at p.
// A symbol and its extra bits take at most 15 + 5 + 15 + 13 = 48 bits,
// so one refill per symbol suffices.
func (r *bitReader) huffmanBlock(lit, dist *huffTable, out []byte, p int) (int, bool) {
	in, b, nb, pos := r.in, r.b, r.nb, r.pos
	var ok bool
	for {
		if nb < 48 {
			if b, nb, pos, ok = refill(in, b, nb, pos); !ok {
				return p, false
			}
		}
		e := lit.lookup(b)
		n := uint(e & 15)
		b >>= n
		nb -= n
		switch e & kindMask {
		case kindLiteral:
			if p >= len(out) {
				return p, false
			}
			out[p] = byte(e >> 16)
			p++
		case kindBase:
			extra := uint(e >> 8 & 15)
			length := int(e>>16) + int(b&(1<<extra-1))
			b >>= extra
			nb -= extra
			e = dist.lookup(b)
			if e&kindMask != kindBase {
				return p, false
			}
			n, extra = uint(e&15), uint(e>>8&15)
			b >>= n
			d := int(e>>16) + int(b&(1<<extra-1))
			b >>= extra
			nb -= n + extra
			if d > p || length > len(out)-p {
				return p, false
			}
			if d >= length {
				p += copy(out[p:p+length], out[p-d:])
				continue
			}
			// The match overlaps its own output: copy the period,
			// doubling what each pass copies.
			src, end := p-d, p+length
			for p < end {
				p += copy(out[p:end], out[src:p])
			}
		case kindEnd:
			r.b, r.nb, r.pos = b, nb, pos
			return p, true
		default:
			return p, false
		}
	}
}
