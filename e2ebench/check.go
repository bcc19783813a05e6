package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// Every expected output is computed here from the seed and the request,
// never from a stored copy of an earlier run.

const (
	getBodySize   = 1024
	uploadSize    = 256 << 10
	mqttPayload   = 256
	mqttHeaderLen = 16 // session and sequence, 8 bytes each
)

// splitmix64 is the seeded generator behind every input: request keys,
// GET bodies, upload bodies and MQTT filler.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// fill writes seeded bytes into b.
func fill(b []byte, state uint64) {
	g := splitmix64(state)
	for len(b) >= 8 {
		binary.LittleEndian.PutUint64(b, g.next())
		b = b[8:]
	}
	if len(b) > 0 {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], g.next())
		copy(b, tail[:])
	}
}

// getBody is the 1 KiB body the app-server handler serves for path. The
// client regenerates it on its own to check what came back through the
// proxies.
func getBody(dst []byte, seed uint64, path string) []byte {
	dst = append(dst[:0], make([]byte, getBodySize)...)
	fill(dst, seed^fnv64(path))
	return dst
}

func checkGetBody(seed uint64, path string, got, scratch []byte) error {
	want := getBody(scratch, seed, path)
	if !bytes.Equal(got, want) {
		return fmt.Errorf("GET %s: body differs from the seeded body (%d bytes, want %d)", path, len(got), len(want))
	}
	return nil
}

// uploadBody is the i-th seeded 256 KiB upload body and its hex SHA-256,
// hashed by the client over exactly the bytes it sends.
func uploadBody(seed uint64, i int) ([]byte, string) {
	b := make([]byte, uploadSize)
	fill(b, seed^(0x5eed0000+uint64(i)))
	sum := sha256.Sum256(b)
	return b, hex.EncodeToString(sum[:])
}

func checkDigest(path, wantHex string, got []byte) error {
	if string(got) != wantHex {
		return fmt.Errorf("POST %s: digest %q, want %q", path, got, wantHex)
	}
	return nil
}

// mqttMessage writes the payload for (session, seq): the pair itself and
// seeded filler, so a delivery can be checked without the sender's state.
func mqttMessage(dst []byte, seed uint64, session int, seq uint64) []byte {
	dst = append(dst[:0], make([]byte, mqttPayload)...)
	binary.BigEndian.PutUint64(dst[0:8], uint64(session))
	binary.BigEndian.PutUint64(dst[8:16], seq)
	fill(dst[mqttHeaderLen:], seed^uint64(session)<<56^seq)
	return dst
}

// checkMQTTMessage decodes a delivery for session, verifies its filler and
// returns its sequence number.
func checkMQTTMessage(seed uint64, session int, got, scratch []byte) (uint64, error) {
	if len(got) != mqttPayload {
		return 0, fmt.Errorf("mqtt: payload of %d bytes, want %d", len(got), mqttPayload)
	}
	if s := binary.BigEndian.Uint64(got[0:8]); s != uint64(session) {
		return 0, fmt.Errorf("mqtt: delivery for session %d arrived on session %d", s, session)
	}
	seq := binary.BigEndian.Uint64(got[8:16])
	if want := mqttMessage(scratch, seed, session, seq); !bytes.Equal(got, want) {
		return 0, fmt.Errorf("mqtt: payload of seq %d is corrupted", seq)
	}
	return seq, nil
}

// seqTracker checks that one session's deliveries arrive exactly once and
// in order.
type seqTracker struct{ next uint64 }

func (t *seqTracker) accept(seq uint64) error {
	switch {
	case seq == t.next:
		t.next++
		return nil
	case seq < t.next:
		return fmt.Errorf("mqtt: seq %d delivered again or out of order (expecting %d)", seq, t.next)
	default:
		return fmt.Errorf("mqtt: seq %d arrived while %d is missing (dropped or reordered)", seq, t.next)
	}
}

// skip accounts for a publish whose operation already failed, so its
// missing delivery is not reported a second time.
func (t *seqTracker) skip(seq uint64) {
	if seq >= t.next {
		t.next = seq + 1
	}
}
