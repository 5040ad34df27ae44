package toplist

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
)

// This file defines the raw read side of the serving fast path: a
// Source that can hand out the stored snapshot document — the gzip CSV
// bytes a DiskStore keeps on disk — without decompressing it, plus the
// content-hash convention that lets a server answer conditional
// requests for those bytes without ever decoding them. The archive
// server (internal/archived) probes for RawSource and, when present,
// serves snapshots as a plain byte copy instead of a decode+re-encode
// round trip.

// ErrCorruptSnapshot marks a raw read of a slot whose stored bytes are
// known not to decode — memoized by a failed Get, flagged by Verify,
// or caught by the persisted-hash check at read time. Raw readers must
// treat it as "refuse to serve", never as "serve what is there": the
// whole point of hashing is that raw serving cannot 200-with-garbage.
var ErrCorruptSnapshot = errors.New("toplist: snapshot is corrupt")

// RawSnapshot is one stored snapshot document: the exact gzip CSV
// bytes on disk (and on the wire — the archive API serves snapshot
// documents verbatim) plus their content hash.
type RawSnapshot struct {
	Data []byte // gzip-compressed CSV, as stored
	Hash string // ContentHash(Data)
}

// RawSource is the optional fast-path extension of Source: a store
// that can serve its snapshot documents as raw bytes. DiskStore
// implements it; in-memory archives and gatekept views do not (they
// have no stored bytes), and consumers fall back to encoding from the
// decoded list.
//
// Both methods must be safe for concurrent use, like Source.
type RawSource interface {
	Source
	// RawHash returns the content hash persisted for the slot at write
	// time, or "" when the slot is absent or predates persisted hashes
	// — the no-I/O probe a server keys its conditional requests and
	// blob cache on.
	RawHash(provider string, day Day) string
	// GetRaw returns the stored document and its hash. A (nil, nil)
	// return means "no raw bytes to serve" (absent, or no persisted
	// hash to validate against) and the caller should fall back to the
	// decode path. An error wrapping ErrCorruptSnapshot means the slot
	// is present but must not be served.
	GetRaw(provider string, day Day) (*RawSnapshot, error)
}

// ContentHash returns the hex content hash of a stored snapshot
// document: the first 16 bytes of its SHA-256. It is persisted in the
// DiskStore manifest at Put time and, quoted, is the wire ETag — the
// two ends of the fast path agree on bytes by agreeing on this value.
func ContentHash(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:16])
}
