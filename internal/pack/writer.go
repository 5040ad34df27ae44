package pack

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/toplist"
)

// Write packs every snapshot src holds into a single archive file at
// path: header, concatenated per-(provider,day) gzip CSV blobs in
// provider insertion order (days ascending within a provider), then
// the central directory and footer. The write is atomic — the file is
// built as path+".tmp" and renamed into place only after everything,
// directory included, is durably written — so a crashed pack never
// leaves a half-file that Open might trust.
//
// When src is a toplist.RawSource (a DiskStore, a Remote, another
// Pack), each blob is the source's stored document taken verbatim with
// its persisted content hash — no decode, no re-encode — after
// re-hashing the bytes in hand: a mismatch between bytes and claimed
// hash aborts the pack rather than baking corruption into an archive
// whose whole point is end-to-end verifiability. Slots without raw
// bytes (hashless v1-upgrade slots, plain in-memory archives) fall
// back to encoding the decoded list with the same deterministic
// encoder a DiskStore Put uses, so the packed bytes are identical
// either way. A slot the source refuses as corrupt
// (toplist.ErrCorruptSnapshot) aborts the pack; absent slots are
// simply skipped, mirroring the gaps of the source.
func Write(path string, src toplist.Source) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = writePack(f, src)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp) //nolint:errcheck
		return err
	}
	return os.Rename(tmp, path)
}

func writePack(f *os.File, src toplist.Source) error {
	bw := bufio.NewWriterSize(f, 1<<16)
	if _, err := bw.Write(packMagic[:]); err != nil {
		return err
	}
	dir := directory{
		Version:   directoryVersion,
		FirstDay:  src.First().String(),
		LastDay:   src.Last().String(),
		Providers: src.Providers(),
	}
	if sc, ok := src.(interface{ Scale() string }); ok {
		dir.Scale = sc.Scale()
	}
	if ex, ok := src.(interface{ Expected() []string }); ok {
		dir.Expected = ex.Expected()
	}
	if dir.Providers == nil {
		dir.Providers = []string{}
	}

	raw, _ := src.(toplist.RawSource)
	offset := int64(headerSize)
	for _, provider := range dir.Providers {
		for day := src.First(); day <= src.Last(); day++ {
			data, hash, err := snapshotDoc(src, raw, provider, day)
			if err != nil {
				return err
			}
			if data == nil {
				continue // absent slot: the pack keeps the gap
			}
			if _, err := bw.Write(data); err != nil {
				return err
			}
			dir.Snapshots = append(dir.Snapshots, record{
				Provider: provider,
				Day:      day.String(),
				Offset:   offset,
				Length:   int64(len(data)),
				Hash:     hash,
			})
			offset += int64(len(data))
		}
	}
	if dir.Snapshots == nil {
		dir.Snapshots = []record{}
	}

	rawDir, err := json.Marshal(&dir)
	if err != nil {
		return err
	}
	if _, err := bw.Write(rawDir); err != nil {
		return err
	}
	dirHash := sha256.Sum256(rawDir)
	var hash16 [16]byte
	copy(hash16[:], dirHash[:16])
	if _, err := bw.Write(encodeFooter(offset, int64(len(rawDir)), hash16)); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	// The rename that publishes the file must not beat the data to the
	// platters: sync before the caller renames.
	return f.Sync()
}

// snapshotDoc produces one slot's blob bytes and content hash: the
// source's stored document when raw bytes exist (verified against the
// claimed hash), the decoded list's toplist.EncodeSnapshot otherwise,
// nil for an absent slot.
func snapshotDoc(src toplist.Source, raw toplist.RawSource, provider string, day toplist.Day) ([]byte, string, error) {
	if raw != nil {
		rs, err := raw.GetRaw(provider, day)
		if err != nil {
			return nil, "", fmt.Errorf("pack: %s %v: %w", provider, day, err)
		}
		if rs != nil {
			if got := toplist.ContentHash(rs.Data); got != rs.Hash {
				return nil, "", fmt.Errorf("pack: %s %v: raw bytes hash %s, source claims %s: refusing to pack", provider, day, got, rs.Hash)
			}
			return rs.Data, rs.Hash, nil
		}
		// No raw bytes for this slot (absent, or no persisted hash):
		// fall through to the decode path, which settles which it is.
	}
	l := src.Get(provider, day)
	if l == nil {
		return nil, "", nil
	}
	data, err := toplist.EncodeSnapshot(l)
	if err != nil {
		return nil, "", fmt.Errorf("pack: encode %s %v: %w", provider, day, err)
	}
	return data, toplist.ContentHash(data), nil
}
