package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"zdr/internal/appserver"
	"zdr/internal/core"
	"zdr/internal/http1"
	"zdr/internal/metrics"
	"zdr/internal/mqtt"
	"zdr/internal/obs"
	"zdr/internal/proxy"
)

// drainWait is how long each old proxy generation drains before it is
// closed. It is fixed so that every release holds the same hand-off.
const drainWait = 100 * time.Millisecond

// stack is the whole release stack, built in process from the public
// constructors: one broker, two app servers, two origins and one edge,
// each proxy in its own core.ProxySlot.
type stack struct {
	broker   *mqtt.Broker
	brokerLn net.Listener
	brokerWG sync.WaitGroup

	apps    []*appserver.Server
	origins []*core.ProxySlot
	edge    *core.ProxySlot

	edgeReg    *metrics.Registry
	originRegs []*metrics.Registry
	edgeBuilds atomic.Int64
	// trace records the program's per-request spans; nil when untraced.
	trace *obs.Tracer
}

// buildStack brings the stack up. dir holds the takeover sockets; reqTrace,
// when non-nil, turns on the program's own per-request spans.
func buildStack(dir string, seed uint64, reqTrace *obs.Tracer) (*stack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &stack{edgeReg: metrics.NewRegistry(), trace: reqTrace}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()

	s.broker = mqtt.NewBroker("broker", nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.brokerLn = ln
	s.brokerWG.Add(1)
	go func() {
		defer s.brokerWG.Done()
		s.broker.Serve(ln)
	}()

	var appAddrs []string
	for i := 0; i < 2; i++ {
		a := appserver.New(appserver.Config{
			Name:    fmt.Sprintf("app-%d", i),
			Handler: appHandler(seed),
			Trace:   reqTrace,
		}, nil)
		addr, err := a.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		s.apps = append(s.apps, a)
		appAddrs = append(appAddrs, addr)
	}

	var tunnels []string
	for i := 0; i < 2; i++ {
		reg := metrics.NewRegistry()
		s.originRegs = append(s.originRegs, reg)
		var builds atomic.Int64
		name := fmt.Sprintf("origin%d", i)
		slot := &core.ProxySlot{
			SlotName:  name,
			Path:      filepath.Join(dir, name+".sock"),
			DrainWait: drainWait,
			Build: func() *proxy.Proxy {
				return proxy.New(proxy.Config{
					Name:       fmt.Sprintf("%s-g%d", name, builds.Add(1)),
					Role:       proxy.RoleOrigin,
					AppServers: appAddrs,
					Brokers:    []string{ln.Addr().String()},
					Trace:      reqTrace,
				}, reg)
			},
		}
		if err := slot.Start(); err != nil {
			return nil, fmt.Errorf("start %s: %w", name, err)
		}
		s.origins = append(s.origins, slot)
		tunnels = append(tunnels, slot.Current().Addr(proxy.VIPTunnel))
	}

	s.edge = &core.ProxySlot{
		SlotName:  "edge",
		Path:      filepath.Join(dir, "edge.sock"),
		DrainWait: drainWait,
		Build: func() *proxy.Proxy {
			return proxy.New(proxy.Config{
				Name:    fmt.Sprintf("edge-g%d", s.edgeBuilds.Add(1)),
				Role:    proxy.RoleEdge,
				Origins: tunnels,
				Trace:   reqTrace,
			}, s.edgeReg)
		},
	}
	if err := s.edge.Start(); err != nil {
		return nil, fmt.Errorf("start edge: %w", err)
	}
	ok = true
	return s, nil
}

// appHandler is the benchmark-supplied app-server handler: GET answers
// the seeded 1 KiB body for its path, POST answers the SHA-256 of the
// body it received.
func appHandler(seed uint64) appserver.Handler {
	return func(req *http1.Request, body []byte) *http1.Response {
		switch req.Method {
		case "GET":
			b := getBody(nil, seed, req.Target)
			return http1.NewResponse(200, bytes.NewReader(b), int64(len(b)))
		case "POST":
			sum := sha256.Sum256(body)
			h := []byte(hex.EncodeToString(sum[:]))
			return http1.NewResponse(200, bytes.NewReader(h), int64(len(h)))
		}
		return http1.NewResponse(405, nil, 0)
	}
}

func (s *stack) slots() []*core.ProxySlot {
	return append([]*core.ProxySlot{s.edge}, s.origins...)
}

func (s *stack) webAddr() string  { return s.edge.Current().Addr(proxy.VIPWeb) }
func (s *stack) mqttAddr() string { return s.edge.Current().Addr(proxy.VIPMQTT) }

func (s *stack) tunnelAddrs() []string {
	var out []string
	for _, o := range s.origins {
		out = append(out, o.Current().Addr(proxy.VIPTunnel))
	}
	return out
}

func (s *stack) appAddrs() []string {
	var out []string
	for _, a := range s.apps {
		out = append(out, a.Addr())
	}
	return out
}

// edgeGen returns the build number of the serving edge generation.
func (s *stack) edgeGen() int { return genOf(s.edge.Current().Name()) }

// genOf parses the build number out of a generation name such as
// "edge-g3"; -1 when the name has none.
func genOf(name string) int {
	i := strings.LastIndex(name, "-g")
	if i < 0 {
		return -1
	}
	n, err := strconv.Atoi(name[i+2:])
	if err != nil {
		return -1
	}
	return n
}

func (s *stack) waitDrains() {
	for _, slot := range s.slots() {
		if slot != nil {
			slot.WaitDrains()
		}
	}
}

func (s *stack) close() {
	if s.edge != nil {
		s.edge.Close()
	}
	for _, o := range s.origins {
		o.Close()
	}
	s.waitDrains()
	for _, a := range s.apps {
		a.Close()
	}
	if s.brokerLn != nil {
		s.brokerLn.Close() // ends Serve
		s.brokerWG.Wait()
		s.broker.Close()
	}
}
