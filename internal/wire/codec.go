package wire

// CodecBinary is the protocol's version tag: the one value a peer may offer
// in Hello.Codecs / ReplHello.Codecs and the one value Welcome.Codec /
// ReplHello.Codec ever carry. A hello whose offer lacks it comes from a
// protocol v1 peer (JSON bodies, no batch frames) and is refused.
const CodecBinary = "binary"

// Codec renders frame bodies. The length-prefix framing above it never
// changes, so any Codec's frames pass through the chaos proxy and
// ReadRawFrame unmodified. Streams always write BinaryCodec; JSONCodec is
// the readable rendering that Decode still accepts (hand-written debugging
// frames, the adversarial validate() tables, the fuzz seeds).
//
// Both implementations validate the same way: AppendFrame rejects what
// validate() rejects.
type Codec interface {
	// AppendFrame validates f and appends its encoded body to dst.
	AppendFrame(dst []byte, f *Frame) ([]byte, error)
}

// JSONCodec is the tagged-union JSON body encoding (see Encode).
var JSONCodec Codec = jsonCodec{}

// BinaryCodec is the compact varint body encoding (binary.go) — what every
// Stream writes.
var BinaryCodec Codec = binaryCodec{}

type jsonCodec struct{}

func (jsonCodec) AppendFrame(dst []byte, f *Frame) ([]byte, error) {
	body, err := Encode(f)
	if err != nil {
		return nil, err
	}
	return append(dst, body...), nil
}
