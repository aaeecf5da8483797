// Package persist is the durable-storage toolkit of the engine: the
// binary primitives, section-file framing and write-ahead log that
// internal/store (frozen snapshot format v2), internal/viewreg (view
// registry snapshots) and internal/server (the data-dir lifecycle) build
// their on-disk state from.
//
// # Section files
//
// Every snapshot artifact is a *section file*:
//
//	magic [4]byte | version u8 | sectionCount u8
//	section table: per section  id u8 | length u64 LE | crc32c u32 LE
//	payloads, in table order
//
// Sections are independently CRC-checksummed (Castagnoli), so a
// truncated or bit-flipped file fails closed with ErrCorrupt instead of
// deserializing garbage. The table-up-front layout means a future reader
// can mmap the file and locate any section without scanning — payloads
// are raw byte ranges at known offsets.
//
// # Primitives
//
// Enc/Dec provide the varint/zigzag/string/term codec shared by all
// formats. Dec is sticky-error and bounds every count it reads against
// the bytes actually present, so malformed input (fuzzed, truncated,
// adversarial lengths) produces ErrCorrupt — never a panic and never an
// attacker-chosen allocation.
//
// # Write-ahead log
//
// WAL is the delta-durability half of a checkpoint pair: the snapshot
// captures a store's frozen base at some (baseEpoch, deltaSeq=0) version
// and the WAL accumulates the delta batches accepted since, one fsynced
// record per write batch. Recovery replays the log in order — append-only
// triple batches are idempotent under the store's duplicate suppression —
// and a torn tail (crash mid-append) is detected by the record CRC and
// truncated away. See wal.go.
//
// # Data-dir layout
//
// The rdfcubed daemon composes these pieces under one directory:
//
//	<dir>/base.snap   frozen snapshot (format v2) of the base graph
//	<dir>/base.wal    delta WAL for the base graph
//	<dir>/inst.snap   frozen snapshot of the serving instance
//	<dir>/inst.wal    delta WAL for the serving instance
//	<dir>/views.snap  view-registry snapshot over the serving instance
//
// inst.* exist only while a materialized instance distinct from the base
// is being served. Snapshot files are replaced atomically (AtomicWrite):
// a crash mid-checkpoint leaves the previous snapshot + a replayable WAL.
package persist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"path/filepath"

	"rdfcube/internal/faultfs"
	"rdfcube/internal/rdf"
)

// ErrCorrupt reports a malformed, truncated or checksum-failing
// persistent artifact. All decode errors in this package wrap it.
var ErrCorrupt = errors.New("persist: corrupt data")

// corruptf wraps ErrCorrupt with context.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// ArtifactError is a typed failure of one persistent artifact: it names
// the file, the artifact kind (wal, snapshot, views, dict) and — when
// known — the byte offset, so an operator reading daemon logs can tell
// WAL corruption from snapshot corruption from dictionary-reference
// corruption without reproducing the failure. It wraps the underlying
// error (usually ErrCorrupt, so errors.Is(err, ErrCorrupt) keeps
// working).
type ArtifactError struct {
	// Path is the artifact's file path.
	Path string
	// Kind classifies the artifact: "wal", "snapshot", "views" or
	// "dict" (a WAL record referencing a term the dictionary never
	// assigned).
	Kind string
	// Offset is the byte offset of the failure within the file, or -1
	// when unknown.
	Offset int64
	// Err is the underlying failure.
	Err error
}

func (e *ArtifactError) Error() string {
	if e.Offset >= 0 {
		return fmt.Sprintf("%s %s: at byte offset %d: %v", e.Kind, e.Path, e.Offset, e.Err)
	}
	return fmt.Sprintf("%s %s: %v", e.Kind, e.Path, e.Err)
}

func (e *ArtifactError) Unwrap() error { return e.Err }

// artifactErr wraps err as an ArtifactError unless it already is one.
func artifactErr(kind, path string, offset int64, err error) error {
	var ae *ArtifactError
	if errors.As(err, &ae) {
		return err
	}
	return &ArtifactError{Path: path, Kind: kind, Offset: offset, Err: err}
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Enc accumulates a section payload in memory.
type Enc struct {
	buf []byte
}

// Len reports the number of bytes encoded so far.
func (e *Enc) Len() int { return len(e.buf) }

// Bytes returns the accumulated payload (aliased, not copied).
func (e *Enc) Bytes() []byte { return e.buf }

// Uvarint appends an unsigned varint.
func (e *Enc) Uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

// Varint appends a zigzag-encoded signed varint.
func (e *Enc) Varint(v int64) {
	e.buf = binary.AppendVarint(e.buf, v)
}

// Byte appends one raw byte.
func (e *Enc) Byte(b byte) { e.buf = append(e.buf, b) }

// Float64 appends a fixed-width little-endian float.
func (e *Enc) Float64(f float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(f))
}

// String appends a length-prefixed string.
func (e *Enc) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Term appends an RDF term: kind, value, and — for literals — datatype
// and language tag.
func (e *Enc) Term(t rdf.Term) {
	e.Byte(byte(t.Kind()))
	e.String(t.Value())
	if t.IsLiteral() {
		e.String(t.Datatype())
		e.String(t.Lang())
	}
}

// Dec decodes a payload with a sticky error: after the first malformed
// read every subsequent read returns zero values and Err() reports the
// failure. Counts are bounded by the bytes remaining, so a hostile
// length prefix cannot drive an allocation.
type Dec struct {
	b   []byte
	off int
	err error
}

// NewDec returns a decoder over b.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// Err returns the first decode error, if any.
func (d *Dec) Err() error { return d.err }

// Remaining reports the undecoded byte count.
func (d *Dec) Remaining() int { return len(d.b) - d.off }

func (d *Dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = corruptf(format, args...)
	}
}

// Uvarint reads an unsigned varint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Varint reads a zigzag-encoded signed varint.
func (d *Dec) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Byte reads one raw byte.
func (d *Dec) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.fail("unexpected end of input")
		return 0
	}
	b := d.b[d.off]
	d.off++
	return b
}

// Float64 reads a fixed-width little-endian float.
func (d *Dec) Float64() float64 {
	if d.err != nil {
		return 0
	}
	if d.Remaining() < 8 {
		d.fail("truncated float64")
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return f
}

// String reads a length-prefixed string.
func (d *Dec) String() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(d.Remaining()) {
		d.fail("string length %d exceeds %d remaining bytes", n, d.Remaining())
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// Count reads an element count and bounds it by the remaining payload
// assuming each element occupies at least elemBytes bytes, rejecting
// hostile length prefixes before any allocation.
func (d *Dec) Count(elemBytes int) int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if elemBytes < 1 {
		elemBytes = 1
	}
	if n > uint64(d.Remaining()/elemBytes) {
		d.fail("count %d exceeds remaining input", n)
		return 0
	}
	return int(n)
}

// Term reads a term written by Enc.Term.
func (d *Dec) Term() rdf.Term {
	kind := rdf.TermKind(d.Byte())
	value := d.String()
	if d.err != nil {
		return rdf.Term{}
	}
	switch kind {
	case rdf.KindIRI:
		return rdf.NewIRI(value)
	case rdf.KindBlank:
		return rdf.NewBlank(value)
	case rdf.KindLiteral:
		datatype := d.String()
		lang := d.String()
		if d.err != nil {
			return rdf.Term{}
		}
		if lang != "" {
			return rdf.NewLangLiteral(value, lang)
		}
		return rdf.NewTypedLiteral(value, datatype)
	default:
		d.fail("unknown term kind %d", kind)
		return rdf.Term{}
	}
}

// FileWriter assembles a section file.
type FileWriter struct {
	magic    string
	version  uint8
	ids      []uint8
	payloads [][]byte
}

// NewFileWriter returns a writer for the given 4-byte magic and format
// version.
func NewFileWriter(magic string, version uint8) *FileWriter {
	if len(magic) != 4 {
		panic("persist: magic must be 4 bytes")
	}
	return &FileWriter{magic: magic, version: version}
}

// Section adds a section payload under id. Sections are written in
// insertion order; ids must be unique per file.
func (fw *FileWriter) Section(id uint8, payload []byte) {
	fw.ids = append(fw.ids, id)
	fw.payloads = append(fw.payloads, payload)
}

// Write writes the header, section table and payloads to w.
func (fw *FileWriter) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(fw.magic)
	bw.WriteByte(fw.version)
	bw.WriteByte(uint8(len(fw.ids)))
	var hdr [13]byte
	for i, id := range fw.ids {
		hdr[0] = id
		binary.LittleEndian.PutUint64(hdr[1:9], uint64(len(fw.payloads[i])))
		binary.LittleEndian.PutUint32(hdr[9:13], crc32.Checksum(fw.payloads[i], castagnoli))
		if _, err := bw.Write(hdr[:]); err != nil {
			return err
		}
	}
	for _, p := range fw.payloads {
		if _, err := bw.Write(p); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// File is a parsed section file with CRC-verified payloads.
type File struct {
	Version  uint8
	sections map[uint8][]byte
}

// ReadFile parses a section file from r, verifying the magic and every
// section checksum. Section payloads are read incrementally, so a
// hostile length claim fails on the actually-missing bytes instead of
// allocating up front.
func ReadFile(r io.Reader, magic string) (*File, error) {
	br := bufio.NewReader(r)
	var head [6]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return nil, corruptf("short header: %v", err)
	}
	if string(head[:4]) != magic {
		return nil, corruptf("bad magic %q, want %q", head[:4], magic)
	}
	f := &File{Version: head[4], sections: map[uint8][]byte{}}
	nSections := int(head[5])
	type entry struct {
		id     uint8
		length uint64
		crc    uint32
	}
	entries := make([]entry, nSections)
	var hdr [13]byte
	for i := range entries {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return nil, corruptf("short section table: %v", err)
		}
		entries[i] = entry{
			id:     hdr[0],
			length: binary.LittleEndian.Uint64(hdr[1:9]),
			crc:    binary.LittleEndian.Uint32(hdr[9:13]),
		}
		if _, dup := f.sections[entries[i].id]; dup || entries[i].id == 0 {
			return nil, corruptf("bad section id %d", entries[i].id)
		}
		f.sections[entries[i].id] = nil
	}
	for _, e := range entries {
		var buf bytes.Buffer
		if n, err := io.CopyN(&buf, br, int64(e.length)); err != nil || uint64(n) != e.length {
			return nil, corruptf("section %d truncated at %d of %d bytes", e.id, n, e.length)
		}
		payload := buf.Bytes()
		if crc32.Checksum(payload, castagnoli) != e.crc {
			return nil, corruptf("section %d checksum mismatch", e.id)
		}
		f.sections[e.id] = payload
	}
	return f, nil
}

// Section returns a decoder over section id, or an ErrCorrupt error when
// the section is absent.
func (f *File) Section(id uint8) (*Dec, error) {
	p, ok := f.sections[id]
	if !ok {
		return nil, corruptf("missing section %d", id)
	}
	return NewDec(p), nil
}

// HasSection reports whether section id is present.
func (f *File) HasSection(id uint8) bool {
	_, ok := f.sections[id]
	return ok
}

// Front coding. Dictionary term values are stored in blocks of
// FrontBlock terms: the first value of a block is stored whole, each
// subsequent one as (shared-prefix length, suffix) relative to its
// predecessor — the HDT-style layout that makes sorted-ish IRI runs
// (shared namespaces, numbered locals) collapse to a few bytes each.

// FrontBlock is the front-coding block size of dictionary sections.
const FrontBlock = 16

// CommonPrefixLen returns the length of the longest common prefix of a
// and b.
func CommonPrefixLen(a, b string) int {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// EncodeTermBlock appends terms to e with front-coded values: position
// i%FrontBlock == 0 restarts the chain.
func EncodeTermBlock(e *Enc, terms []rdf.Term) {
	prev := ""
	for i, t := range terms {
		e.Byte(byte(t.Kind()))
		v := t.Value()
		if i%FrontBlock == 0 {
			e.String(v)
		} else {
			p := CommonPrefixLen(prev, v)
			e.Uvarint(uint64(p))
			e.String(v[p:])
		}
		prev = v
		if t.IsLiteral() {
			e.String(t.Datatype())
			e.String(t.Lang())
		}
	}
}

// DecodeTermBlock reads n front-coded terms written by EncodeTermBlock.
func DecodeTermBlock(d *Dec, n int) ([]rdf.Term, error) {
	terms := make([]rdf.Term, 0, n)
	prev := ""
	for i := 0; i < n; i++ {
		kind := rdf.TermKind(d.Byte())
		var value string
		if i%FrontBlock == 0 {
			value = d.String()
		} else {
			p := d.Uvarint()
			if d.err == nil && p > uint64(len(prev)) {
				d.fail("front-coded prefix %d exceeds previous value length %d", p, len(prev))
			}
			suffix := d.String()
			if d.err != nil {
				return nil, d.err
			}
			value = prev[:p] + suffix
		}
		prev = value
		var t rdf.Term
		switch kind {
		case rdf.KindIRI:
			t = rdf.NewIRI(value)
		case rdf.KindBlank:
			t = rdf.NewBlank(value)
		case rdf.KindLiteral:
			datatype := d.String()
			lang := d.String()
			if lang != "" {
				t = rdf.NewLangLiteral(value, lang)
			} else {
				t = rdf.NewTypedLiteral(value, datatype)
			}
		default:
			d.fail("unknown term kind %d at term %d", kind, i)
		}
		if d.err != nil {
			return nil, d.err
		}
		terms = append(terms, t)
	}
	return terms, nil
}

// AtomicWrite writes the output of write to path via a same-directory
// temp file, fsyncs it, renames it into place and fsyncs the directory —
// so the file at path is always either the old or the new complete
// content, never a torn mix.
func AtomicWrite(path string, write func(io.Writer) error) error {
	return AtomicWriteFS(faultfs.OS, path, write)
}

// AtomicWriteFS is AtomicWrite over an injectable filesystem: any
// failure — temp creation, a short or failed write, the fsync, the
// rename — leaves the previous file at path intact.
func AtomicWriteFS(fsys faultfs.FS, path string, write func(io.Writer) error) error {
	fsys = faultfs.OrOS(fsys)
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer fsys.Remove(tmp.Name()) // no-op after a successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(fsys, dir)
}

// AtomicWriteFile is AtomicWriteFS with random access to the temp file:
// write receives the faultfs.File itself (WriteAt included) instead of
// an io.Writer. The rename-into-place semantics are identical: path
// holds either the old or the complete new content, never a torn mix.
func AtomicWriteFile(fsys faultfs.FS, path string, write func(faultfs.File) error) error {
	fsys = faultfs.OrOS(fsys)
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer fsys.Remove(tmp.Name()) // no-op after a successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(fsys, dir)
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(fsys faultfs.FS, dir string) error {
	d, err := fsys.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	// Some platforms (and some filesystems) reject fsync on directories;
	// the rename itself is still atomic there.
	if err := d.Sync(); err != nil && !errors.Is(err, errors.ErrUnsupported) {
		return err
	}
	return nil
}
