package wire

import (
	"encoding/binary"
	"fmt"

	"cosoft/internal/attr"
	"cosoft/internal/couple"
)

// decoder consumes a message body sequentially, latching the first error so
// message decoders can read field after field and check once at the end.
// Everything it returns is a copy: buf is a frame buffer its owner reuses.
type decoder struct {
	buf []byte
	err error
	// idents is the connection's identifier table and notices its memo of
	// decoded notices (both nil outside a Conn: identifiers are then copied
	// like any other string, and every notice is decoded afresh).
	idents  *internTable
	notices *noticeMemo
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: corrupt %s", what)
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) bool() bool { return d.uvarint() != 0 }

// view consumes one length-prefixed field and returns it as a sub-slice of
// the frame buffer — for the caller to copy or decode out of, never to keep.
func (d *decoder) view(what string) []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)) {
		d.fail(what)
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

func (d *decoder) string() string { return string(d.view("string")) }

// ident decodes an identifier — an object path, event name, instance ID or
// class name — through the connection's intern table.
func (d *decoder) ident() string { return d.idents.get(d.view("string")) }

func (d *decoder) bytes() []byte {
	v := d.view("bytes")
	if d.err != nil {
		return nil
	}
	b := make([]byte, len(v))
	copy(b, v)
	return b
}

func (d *decoder) instanceID() couple.InstanceID {
	return couple.InstanceID(d.ident())
}

func (d *decoder) objectRef() couple.ObjectRef {
	return couple.ObjectRef{Instance: d.instanceID(), Path: d.ident()}
}

func (d *decoder) link() couple.Link {
	return couple.Link{From: d.objectRef(), To: d.objectRef(), Creator: d.instanceID()}
}

func (d *decoder) values() []attr.Value {
	if d.err != nil {
		return nil
	}
	vals, rest, err := attr.DecodeValues(d.buf)
	if err != nil {
		d.err = err
		return nil
	}
	d.buf = rest
	return vals
}

// skipValues consumes a value list as values would, decoding nothing.
func (d *decoder) skipValues() {
	if d.err != nil {
		return
	}
	rest, err := attr.SkipValues(d.buf)
	if err != nil {
		d.err = err
		return
	}
	d.buf = rest
}

// identList decodes a list of identifiers (the paths of a SetLocks).
func (d *decoder) identList() []string {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > 1<<16 {
		d.fail("string count")
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.ident()
	}
	return out
}

func (d *decoder) done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("wire: %d trailing bytes", len(d.buf))
	}
	return nil
}

func appendUvarint(buf []byte, v uint64) []byte { return binary.AppendUvarint(buf, v) }

func appendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

func appendObjectRef(buf []byte, r couple.ObjectRef) []byte {
	buf = appendString(buf, string(r.Instance))
	return appendString(buf, r.Path)
}

func appendLink(buf []byte, l couple.Link) []byte {
	buf = appendObjectRef(buf, l.From)
	buf = appendObjectRef(buf, l.To)
	return appendString(buf, string(l.Creator))
}

func appendStringList(buf []byte, ss []string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ss)))
	for _, s := range ss {
		buf = appendString(buf, s)
	}
	return buf
}
