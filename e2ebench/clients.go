package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"zdr/internal/h2t"
	"zdr/internal/mqtt"
)

const (
	dialTimeout = 2 * time.Second
	opTimeout   = 10 * time.Second
	getKeys     = 4096
	uploadPool  = 4
	maxRespBody = 1 << 20
)

// Failure classes. Every failed operation is counted under exactly one.
const (
	class503     = "503"
	class504     = "504"
	classStatus  = "other_status"
	classReset   = "reset"
	classTimeout = "timeout"
	classWrong   = "wrong_bytes"
	classRefused = "refused"
)

// outcome is one closed-loop operation: its latency when it succeeded,
// or the class and cause of its failure.
type outcome struct {
	dur   time.Duration
	class string // "" on success
	err   error
}

func failure(class string, err error) outcome { return outcome{class: class, err: err} }

func classify(err error) string {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return classTimeout
	}
	if strings.Contains(err.Error(), "timeout") {
		return classTimeout
	}
	return classReset
}

func statusClass(code int) string {
	switch code {
	case 503:
		return class503
	case 504:
		return class504
	}
	return classStatus
}

// worker is one closed-loop client: it runs its next operation only after
// the previous one has completed.
type worker interface {
	op() outcome
	close()
}

// httpMix generates a workload's seeded HTTP requests: GETs of one of
// getKeys paths, or POSTs of one of uploadPool seeded 256 KiB bodies.
type httpMix struct {
	seed    uint64
	upload  bool
	bodies  [][]byte
	digests []string
}

func newHTTPMix(seed uint64, upload bool) *httpMix {
	m := &httpMix{seed: seed, upload: upload}
	if upload {
		for i := 0; i < uploadPool; i++ {
			b, d := uploadBody(seed, i)
			m.bodies = append(m.bodies, b)
			m.digests = append(m.digests, d)
		}
	}
	return m
}

// request is one generated request and what its response must hold.
type request struct {
	method string
	path   string
	body   []byte
	digest string // POST only
}

// paths caches the GET/POST targets so generating a request allocates
// nothing.
var paths = func() (p [2][getKeys]string) {
	for k := 0; k < getKeys; k++ {
		p[0][k] = "/api/" + strconv.Itoa(k)
		p[1][k] = "/upload/" + strconv.Itoa(k)
	}
	return p
}()

func (m *httpMix) next(g *splitmix64) request {
	k := g.next() % getKeys
	if !m.upload {
		return request{method: "GET", path: paths[0][k]}
	}
	i := g.next() % uploadPool
	return request{method: "POST", path: paths[1][k], body: m.bodies[i], digest: m.digests[i]}
}

// check verifies a 200 response body against the seed and the request.
func (m *httpMix) check(r request, body, scratch []byte) error {
	if r.method == "POST" {
		return checkDigest(r.path, r.digest, body)
	}
	return checkGetBody(m.seed, r.path, body, scratch)
}

// httpClient is a minimal keep-alive HTTP/1.1 client of the benchmark's
// own, so responses are parsed apart from the program's http1 package.
type httpClient struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	head []byte
	body []byte
	via  string
}

func (c *httpClient) connected() bool { return c.conn != nil }

func (c *httpClient) dial() error {
	conn, err := net.DialTimeout("tcp", c.addr, dialTimeout)
	if err != nil {
		return err
	}
	c.conn = conn
	c.br = bufio.NewReaderSize(conn, 16<<10)
	c.via = ""
	return nil
}

func (c *httpClient) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// do sends one request and reads the whole response; the body stays
// valid until the next call. Any transport error closes the connection.
func (c *httpClient) do(method, path string, body []byte) (int, error) {
	c.conn.SetDeadline(time.Now().Add(opTimeout))
	c.head = append(c.head[:0], method...)
	c.head = append(c.head, ' ')
	c.head = append(c.head, path...)
	c.head = append(c.head, " HTTP/1.1\r\nHost: bench\r\n"...)
	if body != nil {
		c.head = append(c.head, "Content-Length: "...)
		c.head = strconv.AppendInt(c.head, int64(len(body)), 10)
		c.head = append(c.head, "\r\n"...)
	}
	c.head = append(c.head, "\r\n"...)
	var err error
	if body == nil {
		_, err = c.conn.Write(c.head)
	} else {
		bufs := net.Buffers{c.head, body}
		_, err = bufs.WriteTo(c.conn)
	}
	if err == nil {
		var status int
		if status, err = c.readResponse(); err == nil {
			return status, nil
		}
	}
	c.close()
	return 0, err
}

var errMalformed = errors.New("malformed HTTP response")

func (c *httpClient) readResponse() (int, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, errMalformed
	}
	status, ok := parseUint(line[9:12], 10)
	if !ok {
		return 0, errMalformed
	}
	cl, chunked := -1, false
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			return 0, errMalformed
		}
		name, val := line[:colon], bytes.TrimSpace(line[colon+1:])
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if cl, ok = parseUint(val, 10); !ok {
				return 0, errMalformed
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(val, []byte("chunked"))
		case bytes.EqualFold(name, []byte("Via")):
			if string(val) != c.via {
				c.via = string(val)
			}
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		for {
			line, err = c.br.ReadSlice('\n')
			if err != nil {
				return 0, err
			}
			line = bytes.TrimRight(line, "\r\n")
			if i := bytes.IndexByte(line, ';'); i >= 0 {
				line = line[:i]
			}
			n, ok := parseUint(line, 16)
			if !ok {
				return 0, errMalformed
			}
			if n == 0 {
				return status, c.skipTrailers()
			}
			if err := c.readBody(n); err != nil {
				return 0, err
			}
			if line, err = c.br.ReadSlice('\n'); err != nil {
				return 0, err
			}
			if len(bytes.TrimRight(line, "\r\n")) != 0 {
				return 0, errMalformed
			}
		}
	case cl >= 0:
		return status, c.readBody(cl)
	}
	return 0, errMalformed
}

func (c *httpClient) readBody(n int) error {
	if len(c.body)+n > maxRespBody {
		return errMalformed
	}
	start := len(c.body)
	c.body = append(c.body, make([]byte, n)...)
	_, err := io.ReadFull(c.br, c.body[start:])
	return err
}

func (c *httpClient) skipTrailers() error {
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		if len(bytes.TrimRight(line, "\r\n")) == 0 {
			return nil
		}
	}
}

func parseUint(b []byte, base int) (int, bool) {
	if len(b) == 0 || len(b) > 8 {
		return 0, false
	}
	n := 0
	for _, ch := range b {
		var d int
		switch {
		case ch >= '0' && ch <= '9':
			d = int(ch - '0')
		case base == 16 && ch >= 'a' && ch <= 'f':
			d = int(ch-'a') + 10
		case base == 16 && ch >= 'A' && ch <= 'F':
			d = int(ch-'A') + 10
		default:
			return 0, false
		}
		n = n*base + d
	}
	return n, true
}

// httpWorker runs the HTTP mix over keep-alive connections to one
// address: the edge web VIP on the full path, an app server directly
// when peeling.
type httpWorker struct {
	c       httpClient
	mix     *httpMix
	gen     splitmix64
	scratch []byte
	via     *viaCheck // release_rolling only
}

func newHTTPWorker(addr string, mix *httpMix, seed uint64, id int) *httpWorker {
	return &httpWorker{
		c:       httpClient{addr: addr},
		mix:     mix,
		gen:     splitmix64(seed ^ uint64(id+1)<<32),
		scratch: make([]byte, 0, getBodySize),
	}
}

func (w *httpWorker) op() outcome {
	r := w.mix.next(&w.gen)
	if !w.c.connected() {
		if w.via != nil {
			w.via.dialing()
		}
		if err := w.c.dial(); err != nil {
			return w.failed(failure(classRefused, err))
		}
	}
	t0 := time.Now()
	status, err := w.c.do(r.method, r.path, r.body)
	d := time.Since(t0)
	if err != nil {
		return w.failed(failure(classify(err), err))
	}
	if status != 200 {
		w.c.close()
		return w.failed(failure(statusClass(status), fmt.Errorf("%s %s: status %d", r.method, r.path, status)))
	}
	if err := w.mix.check(r, w.c.body, w.scratch); err != nil {
		w.c.close()
		return w.failed(failure(classWrong, err))
	}
	if w.via != nil {
		w.via.served(w.c.via)
	}
	return outcome{dur: d}
}

func (w *httpWorker) failed(o outcome) outcome {
	if w.via != nil {
		w.via.failed(o.class)
	}
	return o
}

func (w *httpWorker) close() { w.c.close() }

// viaCheck follows one release_rolling client across edge generations:
// a connection is served by the generation that was serving when it was
// dialed (or a newer one) and never changes generation, and a failure is
// explained by the keep-alive drain fault only when the connection was
// still on an edge generation that has since been replaced.
type viaCheck struct {
	s           *stack
	dialGen     int
	connGen     int // generation named by Via on this connection, 0 if none yet
	explained   int64
	unexplained int64
	violations  []string
}

func (v *viaCheck) dialing() {
	v.dialGen = v.s.edgeGen()
	v.connGen = 0
}

func (v *viaCheck) served(via string) {
	g := genOf(via)
	switch {
	case g < v.dialGen:
		v.violate("Via %q from generation %d after dialing while generation %d served", via, g, v.dialGen)
	case v.connGen != 0 && g != v.connGen:
		v.violate("one connection served by edge generations %d and %d", v.connGen, g)
	}
	v.connGen = g
}

func (v *viaCheck) failed(class string) {
	drained := v.connGen != 0 && v.connGen < v.s.edgeGen()
	if drained && (class == class503 || class == class504 || class == classReset) {
		v.explained++
	} else {
		v.unexplained++
	}
	v.connGen = 0
}

// finish checks that the client ended on the final edge generation.
func (v *viaCheck) finish() {
	if last := v.s.edgeGen(); v.connGen != 0 && v.connGen != last {
		v.violate("client still served by edge generation %d after generation %d took over", v.connGen, last)
	}
}

func (v *viaCheck) violate(format string, args ...any) {
	if len(v.violations) < 4 {
		v.violations = append(v.violations, fmt.Sprintf(format, args...))
	}
}

// tunnelWorker runs the HTTP mix as h2t streams from a session of its own
// straight into an origin's tunnel VIP, timing OpenStream and RecvHeaders.
type tunnelWorker struct {
	addr    string
	sess    *h2t.Session
	mix     *httpMix
	gen     splitmix64
	scratch []byte
	buf     []byte
	body    []byte
	cur     atomic.Pointer[h2t.Stream]
	wd      *time.Timer // resets a stream that outlives opTimeout
	open    []time.Duration
	first   []time.Duration
}

func newTunnelWorker(addr string, mix *httpMix, seed uint64, id int) *tunnelWorker {
	w := &tunnelWorker{
		addr:    addr,
		mix:     mix,
		gen:     splitmix64(seed ^ uint64(id+1)<<32),
		scratch: make([]byte, 0, getBodySize),
		buf:     make([]byte, 32<<10),
	}
	w.wd = time.AfterFunc(time.Hour, func() {
		if st := w.cur.Load(); st != nil {
			st.Reset()
		}
	})
	w.wd.Stop()
	return w
}

func (w *tunnelWorker) op() outcome {
	r := w.mix.next(&w.gen)
	if w.sess == nil {
		conn, err := net.DialTimeout("tcp", w.addr, dialTimeout)
		if err != nil {
			return failure(classRefused, err)
		}
		w.sess = h2t.NewSession(conn, true)
	}
	hdr := map[string]string{
		":method":        r.method,
		":path":          r.path,
		"content-length": strconv.Itoa(len(r.body)),
	}
	t0 := time.Now()
	st, err := w.sess.OpenStream(hdr, r.body == nil)
	t1 := time.Now()
	if err != nil {
		w.drop()
		return failure(classify(err), err)
	}
	w.cur.Store(st)
	w.wd.Reset(opTimeout)
	defer func() {
		w.wd.Stop()
		w.cur.Store(nil)
	}()
	if r.body != nil {
		if _, err := st.Write(r.body); err != nil {
			w.drop()
			return failure(classify(err), err)
		}
		if err := st.CloseWrite(); err != nil {
			w.drop()
			return failure(classify(err), err)
		}
	}
	t2 := time.Now()
	rh, err := st.RecvHeaders(opTimeout)
	t3 := time.Now()
	if err != nil {
		w.drop()
		return failure(classify(err), err)
	}
	w.body = w.body[:0]
	for {
		n, err := st.Read(w.buf)
		w.body = append(w.body, w.buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			w.drop()
			return failure(classify(err), err)
		}
		if len(w.body) > maxRespBody {
			w.drop()
			return failure(classWrong, errMalformed)
		}
	}
	d := time.Since(t0)
	if status, _ := strconv.Atoi(rh["status"]); status != 200 {
		return failure(statusClass(status), fmt.Errorf("tunnel %s %s: status %q", r.method, r.path, rh["status"]))
	}
	if err := w.mix.check(r, w.body, w.scratch); err != nil {
		return failure(classWrong, err)
	}
	w.open = append(w.open, t1.Sub(t0))
	w.first = append(w.first, t3.Sub(t2))
	return outcome{dur: d}
}

func (w *tunnelWorker) drop() {
	if w.sess != nil {
		w.sess.Close()
		w.sess = nil
	}
}

func (w *tunnelWorker) close() {
	w.wd.Stop()
	w.drop()
}

// mqttWorker is one MQTT session that publishes QoS-1 messages to a topic
// it subscribes to. An operation ends when both the PUBACK and the
// delivered message have arrived.
type mqttWorker struct {
	addr     string
	clientID string
	topic    string
	session  int
	seed     uint64
	c        *mqtt.Client
	seq      uint64
	track    seqTracker
	payload  []byte
	scratch  []byte
	timer    *time.Timer
}

func newMQTTWorker(addr, prefix string, seed uint64, session int) *mqttWorker {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &mqttWorker{
		addr:     addr,
		clientID: fmt.Sprintf("%s-%d", prefix, session),
		topic:    fmt.Sprintf("bench/%s/%d", prefix, session),
		session:  session,
		seed:     seed,
		payload:  make([]byte, 0, mqttPayload),
		scratch:  make([]byte, 0, mqttPayload),
		timer:    t,
	}
}

func (w *mqttWorker) connect() error {
	conn, err := net.DialTimeout("tcp", w.addr, dialTimeout)
	if err != nil {
		return err
	}
	c := mqtt.NewClient(conn, w.clientID, true)
	if _, err := c.Connect(0, opTimeout); err != nil {
		conn.Close()
		return err
	}
	if err := c.Subscribe(opTimeout, w.topic); err != nil {
		c.Disconnect()
		return err
	}
	w.c = c
	return nil
}

func (w *mqttWorker) op() outcome {
	seq := w.seq
	w.seq++
	if w.c == nil {
		if err := w.connect(); err != nil {
			w.track.skip(seq)
			return failure(classRefused, err)
		}
	}
	w.payload = mqttMessage(w.payload, w.seed, w.session, seq)
	t0 := time.Now()
	if err := w.c.Publish(w.topic, w.payload, 1, opTimeout); err != nil {
		w.drop(seq)
		return failure(classify(err), err)
	}
	w.timer.Reset(opTimeout)
	var msg *mqtt.Packet
	select {
	case msg = <-w.c.Messages():
		if !w.timer.Stop() {
			<-w.timer.C
		}
	case <-w.timer.C:
		w.drop(seq)
		return failure(classTimeout, fmt.Errorf("mqtt: seq %d acknowledged but never delivered", seq))
	}
	d := time.Since(t0)
	got, err := checkMQTTMessage(w.seed, w.session, msg.Payload, w.scratch)
	if err == nil {
		err = w.track.accept(got)
	}
	if err != nil {
		w.drop(seq)
		return failure(classWrong, err)
	}
	return outcome{dur: d}
}

func (w *mqttWorker) drop(seq uint64) {
	w.track.skip(seq)
	if w.c != nil {
		w.c.Disconnect()
		w.c = nil
	}
}

func (w *mqttWorker) close() {
	if w.c != nil {
		w.c.Disconnect()
		w.c = nil
	}
}
