package snap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
)

// Version is the snapshot format version this build reads and writes. See
// the package comment for the bump policy.
const Version uint32 = 4

// magic identifies a snapshot file.
var magic = [8]byte{'R', 'E', 'P', 'R', 'O', 'S', 'N', 'P'}

// verEnd and headerLen delimit the header: magic, the big-endian version,
// then the big-endian payload type fingerprint.
const (
	verEnd    = len(magic) + 4
	headerLen = verEnd + 8
)

// Encode writes the framed snapshot of v to w in one Write: header, then
// the payload. v is a value or a pointer to one (pointers are followed);
// a type outside the supported kinds (see the package comment) is an
// error.
func Encode(w io.Writer, v any) error {
	rv, err := indirect(v)
	if err != nil {
		return err
	}
	c, err := codecFor(rv.Type())
	if err != nil {
		return err
	}
	bp := c.buf.Swap(nil)
	if bp == nil {
		bp = new([]byte)
	}
	b := append((*bp)[:0], magic[:]...)
	b = binary.BigEndian.AppendUint32(b, Version)
	b = binary.BigEndian.AppendUint64(b, c.fingerprint)
	*bp = c.root.encode(b, rv)
	_, err = w.Write(*bp)
	c.buf.Store(bp)
	if err != nil {
		return fmt.Errorf("snap: write: %w", err)
	}
	return nil
}

// Decode reads a framed snapshot from r into v (a non-nil pointer). It
// checks the magic, then the version, then the payload's type
// fingerprint against v's, and reads r to its end: malformed input —
// truncated, corrupt, of another version or another type, or followed by
// trailing bytes — returns an error, and any payload-decoding panic is
// converted into one too, so untrusted bytes can never take the process
// down. On error v may be partly written.
func Decode(r io.Reader, v any) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("snap: malformed snapshot: %v", p)
		}
	}()
	dst := reflect.ValueOf(v)
	if dst.Kind() != reflect.Pointer || dst.IsNil() {
		return fmt.Errorf("snap: Decode needs a non-nil pointer, got %T", v)
	}
	dst = dst.Elem()
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:verEnd]); err != nil {
		return fmt.Errorf("snap: read header: %w", err)
	}
	if !bytes.Equal(hdr[:len(magic)], magic[:]) {
		return fmt.Errorf("snap: bad magic %q (not a snapshot file)", hdr[:len(magic)])
	}
	if ver := binary.BigEndian.Uint32(hdr[len(magic):]); ver != Version {
		return fmt.Errorf("snap: snapshot version %d, this build reads %d", ver, Version)
	}
	if _, err := io.ReadFull(r, hdr[verEnd:]); err != nil {
		return fmt.Errorf("snap: read header: %w", err)
	}
	c, err := codecFor(dst.Type())
	if err != nil {
		return err
	}
	if fp := binary.BigEndian.Uint64(hdr[verEnd:]); fp != c.fingerprint {
		return fmt.Errorf("snap: payload type fingerprint %016x, this build's %v is %016x "+
			"(the snapshot was written from a different DTO graph)", fp, dst.Type(), c.fingerprint)
	}
	payload, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("snap: read payload: %w", err)
	}
	d := decoder{buf: payload, n: len(payload)}
	if err := d.value(c.root, dst); err != nil {
		return fmt.Errorf("snap: decode payload: %w", err)
	}
	if len(d.buf) > 0 {
		return fmt.Errorf("snap: %d trailing bytes after the payload", len(d.buf))
	}
	return nil
}

// EncodeFile atomically and durably writes the snapshot of v to path: the
// bytes land in a temporary file in the same directory, fsynced, then
// renamed over the destination, and the directory is fsynced so the
// rename itself survives a power loss. A crash mid-write leaves the
// previous checkpoint intact, never a torn file.
func EncodeFile(path string, v any) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("snap: %w", err)
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := Encode(f, v); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("snap: sync %s: %w", tmp, err))
	}
	if err := f.Close(); err != nil {
		return fail(fmt.Errorf("snap: close %s: %w", tmp, err))
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("snap: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("snap: sync directory %s: %w", dir, err)
	}
	return nil
}

// syncDir fsyncs a directory, committing the entries renamed into it.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// DecodeFile reads the snapshot at path into v (a pointer).
func DecodeFile(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("snap: %w", err)
	}
	defer f.Close()
	return Decode(f, v)
}
