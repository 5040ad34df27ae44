package toplist

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strconv"
	"sync"
	"unicode/utf8"
)

// csvBufPool recycles the encode buffers behind WriteCSV: the bufio
// writer smoothing small line writes and the per-line scratch. A
// streaming run persists one snapshot per provider per day; without the
// pool each Put would construct both from scratch.
var csvBufPool = sync.Pool{
	New: func() any {
		return &csvEncoder{bw: bufio.NewWriterSize(nil, 1<<15)}
	},
}

type csvEncoder struct {
	bw   *bufio.Writer
	line []byte
}

// WriteCSV writes the list in the providers' publication format:
// "rank,domain" lines, rank ascending, no header — the same shape as the
// Alexa/Umbrella/Majestic CSV downloads.
func WriteCSV(w io.Writer, l *List) error {
	enc := csvBufPool.Get().(*csvEncoder)
	defer func() {
		// Drop the caller's writer on every path — error returns
		// included — so the pool never retains a reference to it.
		enc.bw.Reset(nil)
		csvBufPool.Put(enc)
	}()
	enc.bw.Reset(w)
	line := enc.line
	for i, name := range l.names {
		line = strconv.AppendInt(line[:0], int64(i+1), 10)
		line = append(line, ',')
		line = append(line, name...)
		line = append(line, '\n')
		if _, err := enc.bw.Write(line); err != nil {
			enc.line = line
			return err
		}
	}
	enc.line = line
	return enc.bw.Flush()
}

// gzipPool recycles gzip compressors across snapshot encodes: a
// gzip.Writer carries ~800 KB of deflate state, and before pooling
// every Put of a streaming run constructed (and discarded) a fresh one
// per (provider, day).
var gzipPool = sync.Pool{
	New: func() any { return gzip.NewWriter(nil) },
}

// EncodeSnapshot encodes l as a stored snapshot document, DecodeSnapshot's
// twin: WriteCSV's lines, gzip-compressed at the default level under a
// header with no optional fields. It is the one encode every writer
// runs — DiskStore.Put, the archive and publication servers and the
// pack writer — so every document the repository writes is one
// DecodeSnapshot's fast path takes, and equal lists encode to equal
// bytes and content hashes.
func EncodeSnapshot(l *List) ([]byte, error) {
	var buf bytes.Buffer
	zw := gzipPool.Get().(*gzip.Writer)
	zw.Reset(&buf)
	err := WriteCSV(zw, l)
	if cerr := zw.Close(); err == nil {
		err = cerr
	}
	zw.Reset(nil) // drop the buffer before pooling
	gzipPool.Put(zw)
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

const (
	// decodeBufSize is the line buffer a decode starts with, and
	// decodeMaxLine the longest line a document may hold: a longer one
	// fails the decode with bufio.ErrTooLong.
	decodeBufSize = 1 << 16
	decodeMaxLine = 1 << 20
	// decodeKeepArena bounds the name arena a pooled decoder keeps
	// between decodes, so one huge list does not pin its size in the
	// pool.
	decodeKeepArena = 1 << 20
)

// decoderPool recycles the decode state behind ReadCSV and
// DecodeSnapshot: the inflaters, the line buffer and the name arena. A
// decode then allocates per document, not per line.
var decoderPool = sync.Pool{
	New: func() any { return new(decoder) },
}

// decoder is the pooled state of one decode. Nothing in it is reachable
// from a returned list: the arena is copied out once, into the string
// every name of the list slices. The gzip.Reader's state and the line
// buffer are made on the first decode that needs them: a snapshot the
// fast path takes needs neither.
type decoder struct {
	inf   inflater     // the fast path's output buffer and tables
	src   bytes.Reader // the compressed document the fallback reads
	zr    gzip.Reader  // Reset onto src per fallback document
	line  []byte       // the line scanner's buffer
	arena []byte       // the validated names, back to back
	ends  []int        // arena offset just past each name
}

// ReadCSV parses a "rank,domain" file. Ranks must be positive, strictly
// increasing, and start at 1; blank lines are ignored, and whitespace
// around a line and around its domain is trimmed. A line longer than
// 1 MiB fails with bufio.ErrTooLong.
//
// The names of the returned list are slices of one string, so keeping
// any one of them keeps the whole list's name bytes alive.
func ReadCSV(r io.Reader) (*List, error) {
	d := decoderPool.Get().(*decoder)
	defer d.release()
	return d.parse(r)
}

// DecodeSnapshot decodes one stored snapshot document — the gzip CSV
// bytes a RawSnapshot carries — back into a List, with ReadCSV's rules.
// It is the one decode every read path runs: DiskStore.Get on a stored
// file, PutRaw and Verify for validation, Remote on a fetched document,
// the blob backends (internal/pack) and internal/listserv's gzip
// format. "Does this document decode" has this one definition
// everywhere bytes are trusted.
//
// A document as EncodeSnapshot writes it is inflated whole into one
// pooled buffer (see inflate.go) and its lines are taken in place.
// Every other document, and any document whose bytes are not all
// WriteCSV-shaped lines, is read through compress/gzip and the line
// scanner, which decide every rejection and its error. Such a document
// is inflated again rather than scanned from the buffer: whether the
// scanner accepts a last, unterminated line of exactly 1 MiB depends on
// whether compress/gzip returns io.EOF with the last bytes.
func DecodeSnapshot(data []byte) (*List, error) {
	d := decoderPool.Get().(*decoder)
	defer d.release()
	if text, ok := d.inf.gunzip(data); ok {
		if l, ok := d.parseCanonical(text); ok {
			return l, nil
		}
	}
	d.src.Reset(data)
	if err := d.zr.Reset(&d.src); err != nil {
		return nil, err
	}
	return d.parse(&d.zr)
}

// release drops the caller's document and returns d to the pool.
func (d *decoder) release() {
	d.src.Reset(nil)
	if cap(d.arena) > decodeKeepArena {
		d.arena, d.ends = nil, nil
	}
	if cap(d.inf.out) > decodeKeepArena {
		d.inf.out = nil
	}
	decoderPool.Put(d)
}

// parseCanonical takes the names of a document made only of lines
// "rank,name\n" as WriteCSV writes them: the expected rank in plain
// decimal, a name with no space or non-ASCII byte at either end, and no
// line longer than decodeMaxLine. Any such document parses to exactly
// these names under ReadCSV's rules. It reports false, having decided
// nothing, for any other document.
func (d *decoder) parseCanonical(text []byte) (*List, bool) {
	d.arena, d.ends = d.arena[:0], d.ends[:0]
	for len(text) > 0 {
		end := bytes.IndexByte(text, '\n')
		if end < 0 || end >= decodeMaxLine {
			return nil, false
		}
		line := text[:end]
		text = text[end+1:]
		// At most 18 digits, so the rank cannot overflow.
		rank, i := 0, 0
		for ; i < len(line) && i < 18 && '0' <= line[i] && line[i] <= '9'; i++ {
			rank = rank*10 + int(line[i]-'0')
		}
		if i == 0 || line[0] == '0' || rank != len(d.ends)+1 || i+1 >= len(line) || line[i] != ',' {
			return nil, false
		}
		name := line[i+1:]
		if !plainEdge(name[0]) || !plainEdge(name[len(name)-1]) {
			return nil, false
		}
		d.arena = append(d.arena, name...)
		d.ends = append(d.ends, len(d.arena))
	}
	return d.list(), true
}

// plainEdge reports whether c may start or end a name the in-place
// parse takes: an ASCII byte above space, which no trim removes.
func plainEdge(c byte) bool { return ' ' < c && c < utf8.RuneSelf }

// parse reads "rank,domain" lines from r into a list.
func (d *decoder) parse(r io.Reader) (*List, error) {
	if d.line == nil {
		d.line = make([]byte, decodeBufSize)
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(d.line, decodeMaxLine)
	d.arena, d.ends = d.arena[:0], d.ends[:0]
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		comma := bytes.IndexByte(line, ',')
		if comma < 0 {
			return nil, fmt.Errorf("toplist: line %d: missing comma: %q", lineNo, line)
		}
		rank, err := strconv.Atoi(string(line[:comma]))
		if err != nil {
			return nil, fmt.Errorf("toplist: line %d: bad rank: %w", lineNo, err)
		}
		if want := len(d.ends) + 1; rank != want {
			return nil, fmt.Errorf("toplist: line %d: rank %d out of order (want %d)", lineNo, rank, want)
		}
		name := bytes.TrimSpace(line[comma+1:])
		if len(name) == 0 {
			return nil, fmt.Errorf("toplist: line %d: empty domain", lineNo)
		}
		d.arena = append(d.arena, name...)
		d.ends = append(d.ends, len(d.arena))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return d.list(), nil
}

// list copies the arena into the one string every name of the returned
// list slices.
func (d *decoder) list() *List {
	if len(d.ends) == 0 {
		return &List{}
	}
	all := string(d.arena)
	names := make([]string, len(d.ends))
	start := 0
	for i, end := range d.ends {
		names[i] = all[start:end]
		start = end
	}
	return &List{names: names}
}
