package wire

// FuzzDecodeFrame drives the whole receive path — framing, type split,
// per-type decode — with arbitrary bytes. The invariants: never panic,
// never allocate proportional to a length *field* (only to bytes
// actually present), and anything that decodes must re-encode to a frame
// that decodes to the same value (codec is a bijection on its image).
import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// retiredFrames are well-formed frames of the message types this protocol
// used to define and no binary ever sent (Register 0x03, RegisterAck 0x04,
// ClusterMap 0x13, Gossip 0x14), kept as the raw bytes their encoders
// produced. They stay in the fuzz corpus, in their old positions, and a
// receiver must reject them as unknown types (TestRetiredFramesRejected).
var retiredFrames = map[string][]byte{
	"register":        []byte("M\x00\x00\x00\xb3\xa4\xa6,\x01\x03\x00\x05\x00\x00\x00\x00\x01\x02\x03\x04\aed25519,\x00\x00\x000*0\x05\x06\x03+ep\x03!\x00\x19\xbfD\ti\x84\xcd\xfe\x85A\xba\xc1g\xdc;\x96\xc8P\x86\xaa0\xb6\xb6\xcb\f\\8\xadp1f\xe1\a\x00ed25519"),
	"register-v3":     []byte("U\x00\x00\x00-\xf6\xb1k\x03\x03\x00\x05\x00\x00\x00\x00\x01\x02\x03\x04\aed25519,\x00\x00\x000*0\x05\x06\x03+ep\x03!\x00\x19\xbfD\ti\x84\xcd\xfe\x85A\xba\xc1g\xdc;\x96\xc8P\x86\xaa0\xb6\xb6\xcb\f\\8\xadp1f\xe1\a\x00ed25519\x06\x00commit"),
	"register-ack":    []byte("\x12\x00\x00\x00N\xe7#Z\x01\x04\x0e\x00drone-00000001"),
	"cluster-map-req": []byte("\x06\x00\x00\x00T\x9f\xde]\x01\x13\x00\x00\x00\x00"),
	"cluster-map":     []byte("\x1e\x00\x00\x00M\xcb\x18\xd8\x01\x13\x18\x00\x00\x00{\"version\":3,\"nodes\":[]}"),
	"gossip":          []byte("&\x00\x00\x00\xea\xeaUe\x01\x14 \x00\x00\x00{\"from\":{\"id\":\"a\",\"addr\":\"h:1\"}}"),
}

// fuzzSeeds returns one frame per interesting shape: valid messages of
// every type, the retired frames, a truncated frame, a corrupted CRC, an
// unknown version, an unknown message type and an oversized length field.
func fuzzSeeds() [][]byte {
	var seeds [][]byte
	add := func(b []byte, err error) {
		if err != nil {
			panic(err)
		}
		seeds = append(seeds, b)
	}

	add(EncodeHelloV(nil, Version1), nil)
	add(EncodeHelloAck(nil, HelloAck{Version: Version1}), nil)
	add(EncodeSubmit(nil, Submit{Seq: 42, DroneID: "drone-00000001", Ciphertext: []byte("ct")}), nil)
	add(EncodeAcks(nil, []Ack{
		{Seq: 42, Status: StatusViolation, InsufficientPairs: 3, Reason: "insufficient PoA"},
		{Seq: 43, Status: StatusOverloaded, RetryAfterMS: 2000},
	}))
	add(retiredFrames["register"], nil)
	add(EncodeSubmitCommit(nil, Submit{Seq: 44, DroneID: "drone-00000002", Ciphertext: []byte("env")}), nil)
	add(retiredFrames["register-v3"], nil)
	add(retiredFrames["register-ack"], nil)
	add(EncodeError(nil, WireError{Message: "unsupported version"}), nil)
	add(EncodeForwardV(nil, Version1, Forward{Seq: 9, DroneID: "drone-cafe", Ciphertext: []byte("ct")}), nil)
	add(EncodeForwardV(nil, Version2, Forward{
		Seq: 10, DroneID: "drone-cafe", Ciphertext: []byte("ct"),
		TraceParent: "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01",
	}), nil)
	add(retiredFrames["cluster-map-req"], nil)
	add(retiredFrames["cluster-map"], nil)
	add(retiredFrames["gossip"], nil)

	whole := EncodeSubmit(nil, Submit{Seq: 7, DroneID: "d", Ciphertext: []byte("payload")})
	seeds = append(seeds, whole[:len(whole)-3]) // truncated mid-payload
	seeds = append(seeds, whole[:5])            // truncated mid-header

	bad := append([]byte(nil), whole...)
	bad[len(bad)-1] ^= 0xff // CRC mismatch
	seeds = append(seeds, bad)

	unknownVer := AppendFrame(nil, 0x63, []byte{TypeSubmit, 0, 0})
	seeds = append(seeds, unknownVer)

	unknownType := AppendFrame(nil, Version1, []byte{0x6e, 1, 2, 3})
	seeds = append(seeds, unknownType)

	oversized := binary.LittleEndian.AppendUint32(nil, MaxMessageBytes+1)
	oversized = append(oversized, 0xde, 0xad, 0xbe, 0xef)
	seeds = append(seeds, oversized)

	// An ack frame whose count field promises more entries than exist.
	inflated, _ := EncodeAcks(nil, []Ack{{Seq: 1}})
	inflated = append([]byte(nil), inflated...)
	inflated[HeaderBytes+2] = 0xff // count low byte, after [version][type]
	seeds = append(seeds, inflated)

	return seeds
}

func FuzzDecodeFrame(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		br := bufio.NewReader(bytes.NewReader(raw))
		for {
			version, data, err := ReadFrame(br, MaxMessageBytes)
			if err != nil {
				if err == io.EOF && len(raw) == 0 {
					return
				}
				return // torn/corrupt/oversized: fine, just must not panic
			}
			if !SupportedVersion(version) {
				continue // next frame; a real peer would reject and close
			}
			typ, body, err := SplitType(data)
			if err != nil {
				continue
			}
			switch typ {
			case TypeHello:
				if _, err := DecodeHello(body); err == nil {
					reencoded := EncodeHelloV(nil, Version1)
					checkReadsBack(t, reencoded)
				}
			case TypeHelloAck:
				if v, err := DecodeHelloAck(body); err == nil {
					checkReadsBack(t, EncodeHelloAck(nil, v))
				}
			case TypeSubmit:
				if v, err := DecodeSubmit(body); err == nil {
					rt := EncodeSubmit(nil, v)
					v2, err := decodeSubmitFrame(t, rt)
					if err != nil {
						t.Fatalf("re-encoded submit does not decode: %v", err)
					}
					if v2.Seq != v.Seq || v2.DroneID != v.DroneID || !bytes.Equal(v2.Ciphertext, v.Ciphertext) {
						t.Fatalf("submit round trip drift: %+v vs %+v", v2, v)
					}
				}
			case TypeSubmitCommit:
				if v, err := DecodeSubmitCommit(body); err == nil {
					rt := EncodeSubmitCommit(nil, v)
					checkReadsBack(t, rt)
				}
			case TypeAck:
				if acks, err := DecodeAcks(body); err == nil {
					rt, err := EncodeAcks(nil, acks)
					if err != nil {
						t.Fatalf("decoded acks do not re-encode: %v", err)
					}
					checkReadsBack(t, rt)
				}
			case TypeForward:
				if v, err := DecodeForwardV(version, body); err == nil {
					checkReadsBack(t, EncodeForwardV(nil, version, v))
				}
			case TypeError:
				if v, err := DecodeError(body); err == nil {
					checkReadsBack(t, EncodeError(nil, v))
				}
			}
		}
	})
}

// checkReadsBack asserts an encoder-produced frame reads back cleanly.
func checkReadsBack(t *testing.T, frame []byte) {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(frame))
	if _, _, err := ReadFrame(br, MaxMessageBytes); err != nil {
		t.Fatalf("encoder output does not read back: %v", err)
	}
}

func decodeSubmitFrame(t *testing.T, frame []byte) (Submit, error) {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(frame))
	_, data, err := ReadFrame(br, MaxMessageBytes)
	if err != nil {
		return Submit{}, err
	}
	_, body, err := SplitType(data)
	if err != nil {
		return Submit{}, err
	}
	return DecodeSubmit(body)
}
