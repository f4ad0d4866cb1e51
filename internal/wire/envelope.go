package wire

import "cosoft/internal/attr"

// AppendEnvelope appends one envelope in the Batch inner-record layout
// ([u16 type(|traceFlag)][uvarint seq][uvarint refSeq][trace?][uvarint
// bodyLen][body]). It is the standalone form of that framing, used wherever a
// single already-decoded envelope must be persisted or re-framed outside a
// connection — the durable event log stores exactly these bytes, so a logged
// record and a batch record share one parser.
func AppendEnvelope(buf []byte, env Envelope) []byte {
	buf = appendHeader(buf, env.Msg.MsgType(), &env)
	return appendBytes(buf, env.Msg.encode(nil))
}

// DecodeEnvelope decodes one envelope produced by AppendEnvelope. The buffer
// must contain exactly one record; trailing bytes are an error, exactly as
// frame decoding rejects them.
func DecodeEnvelope(buf []byte) (Envelope, error) {
	d := &decoder{Reader: attr.NewReader(buf)}
	var rec Record
	if err := d.innerRecord(&rec); err != nil {
		return Envelope{}, err
	}
	defer rec.Release()
	if err := d.Done(); err != nil {
		return Envelope{}, err
	}
	return rec.Box(), nil
}
