package main

import (
	"bufio"
	"strings"
	"testing"
)

func TestGetBodyCheckRejectsCorruptedBody(t *testing.T) {
	const seed, path = 7, "/api/12"
	body := getBody(nil, seed, path)
	if err := checkGetBody(seed, path, body, nil); err != nil {
		t.Fatalf("intact body rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"flipped byte", func() []byte { b := append([]byte(nil), body...); b[500] ^= 1; return b }()},
		{"truncated", body[:getBodySize-1]},
		{"other path", getBody(nil, seed, "/api/13")},
		{"other seed", getBody(nil, seed+1, path)},
	} {
		if err := checkGetBody(seed, path, tc.body, nil); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestDigestCheckRejectsWrongDigest(t *testing.T) {
	body, digest := uploadBody(3, 0)
	if len(body) != uploadSize {
		t.Fatalf("upload body is %d bytes, want %d", len(body), uploadSize)
	}
	if err := checkDigest("/upload/1", digest, []byte(digest)); err != nil {
		t.Fatalf("right digest rejected: %v", err)
	}
	_, other := uploadBody(3, 1)
	for _, got := range []string{other, digest[:63], strings.ToUpper(digest), ""} {
		if err := checkDigest("/upload/1", digest, []byte(got)); err == nil {
			t.Errorf("digest %q accepted", got)
		}
	}
}

func TestMQTTChecksRejectDropReorderDuplicateAndCorruption(t *testing.T) {
	const seed = 11
	deliver := func(tr *seqTracker, session int, seq uint64) error {
		msg := mqttMessage(nil, seed, session, seq)
		got, err := checkMQTTMessage(seed, session, msg, nil)
		if err != nil {
			return err
		}
		return tr.accept(got)
	}
	var tr seqTracker
	for seq := uint64(0); seq < 3; seq++ {
		if err := deliver(&tr, 0, seq); err != nil {
			t.Fatalf("in-order delivery %d rejected: %v", seq, err)
		}
	}
	if err := deliver(&tr, 0, 4); err == nil {
		t.Error("dropped message (3 missing) accepted")
	}
	tr = seqTracker{}
	if err := deliver(&tr, 0, 1); err == nil {
		t.Error("reordered message (1 before 0) accepted")
	}
	tr = seqTracker{}
	deliver(&tr, 0, 0)
	if err := deliver(&tr, 0, 0); err == nil {
		t.Error("duplicate message accepted")
	}
	msg := mqttMessage(nil, seed, 1, 5)
	if _, err := checkMQTTMessage(seed, 0, msg, nil); err == nil {
		t.Error("message of another session accepted")
	}
	msg[100] ^= 0x80
	if _, err := checkMQTTMessage(seed, 1, msg, nil); err == nil {
		t.Error("corrupted filler accepted")
	}
	tr = seqTracker{}
	tr.skip(0) // the publish of seq 0 failed and was already counted
	if err := deliver(&tr, 0, 1); err != nil {
		t.Errorf("delivery after a counted failure rejected: %v", err)
	}
}

func TestHTTPClientParsesBothFramings(t *testing.T) {
	for _, tc := range []struct {
		name, resp, body, via string
		status                int
	}{
		{"content-length", "HTTP/1.1 200 OK\r\nContent-Length: 5\r\nVia: edge-g2\r\n\r\nhello", "hello", "edge-g2", 200},
		{"chunked", "HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n3\r\nhel\r\n2;x=1\r\nlo\r\n0\r\n\r\n", "hello", "", 200},
		{"empty 503", "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n", "", "", 503},
	} {
		c := &httpClient{br: bufio.NewReader(strings.NewReader(tc.resp))}
		status, err := c.readResponse()
		if err != nil || status != tc.status || string(c.body) != tc.body || c.via != tc.via {
			t.Errorf("%s: status %d body %q via %q err %v", tc.name, status, c.body, c.via, err)
		}
	}
	for _, bad := range []string{
		"HTTP/1.1 200 OK\r\n\r\n",                                     // no framing
		"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nshort",           // truncated
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n", // bad chunk size
		"SPDY/3 200 OK\r\n\r\n",
	} {
		c := &httpClient{br: bufio.NewReader(strings.NewReader(bad))}
		if _, err := c.readResponse(); err == nil {
			t.Errorf("malformed response %q accepted", bad)
		}
	}
}

func TestGenOf(t *testing.T) {
	for name, want := range map[string]int{"edge-g1": 1, "origin0-g12": 12, "edge": -1, "edge-gx": -1} {
		if got := genOf(name); got != want {
			t.Errorf("genOf(%q) = %d, want %d", name, got, want)
		}
	}
}
