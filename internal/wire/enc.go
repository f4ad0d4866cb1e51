package wire

import (
	"encoding/binary"

	"cosoft/internal/attr"
	"cosoft/internal/couple"
)

// decoder reads a message body through an attr.Reader, whose first failure
// sticks, so message decoders can read field after field and check once at
// the end. Everything it returns is a copy: the body is a frame buffer its
// owner reuses.
type decoder struct {
	attr.Reader
	// idents is the connection's identifier table and notices its memo of
	// decoded notices (both nil outside a Conn: identifiers are then copied
	// like any other string, and every notice is decoded afresh).
	idents  *internTable
	notices *noticeMemo
}

func (d *decoder) bool() bool { return d.Uvarint() != 0 }

// ident decodes an identifier — an object path, event name, instance ID or
// class name — through the connection's intern table.
func (d *decoder) ident() string { return d.idents.get(d.Bytes()) }

func (d *decoder) bytes() []byte {
	v := d.Bytes()
	if d.Err() != nil {
		return nil
	}
	return append([]byte{}, v...)
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

// identList decodes a list of identifiers (the paths of a SetLocks).
func (d *decoder) identList() []string {
	out := make([]string, d.Count(maxIdents, 1))
	for i := 0; i < len(out) && d.Err() == nil; i++ {
		out[i] = d.ident()
	}
	return out
}

// maxIdents bounds the paths of a SetLocks, the targets of a Command and the
// instances of an InstanceList and the objects of each.
const maxIdents = 1 << 16

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
