// Command e2ebench is the repository's end-to-end benchmark. It builds the
// whole release stack in one process from the public constructors (one
// MQTT broker, two app servers, two origin proxies and one edge proxy,
// each proxy in a core.ProxySlot), drives one workload through it from
// two closed-loop clients, checks every response against values it
// computes on its own, and prints one JSON result line.
//
//	e2ebench --workload api_get_1k --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics. --trace 1 turns on the
// program's tracer and prints the per-layer metrics, which it takes by
// timing the benchmark's own calls straight into each tier. README.md
// lists the workloads, the metrics and the layer each one belongs to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"zdr/internal/core"
	"zdr/internal/obs"
)

// workload is one traffic mix.
type workload struct {
	mqtt    bool // QoS-1 publish/deliver loop instead of HTTP
	upload  bool // 256 KiB POSTs instead of 1 KiB GETs
	release bool // rolling Socket Takeover restarts under the GET load
	warm    int  // untimed operations per client before timing starts
	// windowOps is how many operations one window of the untraced run
	// holds, about a second's worth on a 2-vCPU machine. A run attempts
	// windows(--seconds) of them, a fixed count, so the failed share and
	// the live heap do not move with the machine's speed.
	windowOps int
}

var workloads = map[string]workload{
	"api_get_1k":      {warm: 400, windowOps: 4000},
	"upload_256k":     {upload: true, warm: 40, windowOps: 800},
	"mqtt_pubsub":     {mqtt: true, warm: 400, windowOps: 10000},
	"release_rolling": {release: true, warm: 400, windowOps: 4000},
}

// windows is how many windows a run of secs seconds holds; on
// release_rolling one release per window, in whole edge → origin0 →
// origin1 cycles.
func (w workload) windows(secs float64) int {
	if w.release {
		return 3 * max(1, int(secs/3+0.5))
	}
	return max(3, int(secs+0.5))
}

// setupRounds is how many times a run builds the stack; setup_s is the
// median.
const setupRounds = 3

type config struct {
	seed    uint64
	seconds float64
	trace   bool
	dir     string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	name := flag.String("workload", "", "workload: api_get_1k | upload_256k | mqtt_pubsub | release_rolling")
	seed := flag.Uint64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 10, "length of the measured part of the run")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
	dir := flag.String("dir", ".bench_build/run", "directory for the takeover sockets")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: need --workload {api_get_1k,upload_256k,mqtt_pubsub,release_rolling} --seconds >= 1 --trace {0,1}")
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: float64(*seconds), trace: *trace == 1, dir: *dir}
	res, acct, err := run(*name, w, cfg)
	if acct != nil {
		acct.print(*name, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(name string, w workload, cfg config) (*result, *accounting, error) {
	// UNIX socket paths are limited to 108 bytes, so the takeover sockets
	// live under a path relative to the working directory.
	base := filepath.Join(cfg.dir, strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(base)

	var reqTrace *obs.Tracer
	if cfg.trace {
		reqTrace = obs.NewTracer("e2ebench")
	}
	var setups []float64
	var s *stack
	for i := 0; i < setupRounds; i++ {
		t0 := time.Now()
		st, err := buildStack(filepath.Join(base, strconv.Itoa(i)), cfg.seed, reqTrace)
		if err != nil {
			return nil, nil, err
		}
		first := fullWorkers(w, st, cfg.seed, 1)[0]
		o := first.op()
		first.close()
		if o.class != "" {
			st.close()
			return nil, nil, fmt.Errorf("first response after setup: %s: %v", o.class, o.err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRounds-1 {
			st.close()
		} else {
			s = st
		}
	}
	defer s.close()

	if cfg.trace {
		return traced(w, s, cfg)
	}
	return untraced(w, s, cfg, median(setups))
}

// fullWorkers returns the workload's closed-loop clients on the full
// path: the edge web VIP for HTTP, the edge MQTT VIP for MQTT.
func fullWorkers(w workload, s *stack, seed uint64, n int) []worker {
	ws := make([]worker, n)
	if w.mqtt {
		for i := range ws {
			ws[i] = newMQTTWorker(s.mqttAddr(), "edge", seed, i)
		}
		return ws
	}
	mix := newHTTPMix(seed, w.upload)
	for i := range ws {
		ws[i] = newHTTPWorker(s.webAddr(), mix, seed, i)
	}
	return ws
}

func untraced(w workload, s *stack, cfg config, setup float64) (*result, *accounting, error) {
	var ws []worker
	var vias []*viaCheck
	var ph *phase
	var rel *releaseLog
	var err error
	if w.release {
		ws, vias = rollingWorkers(s, cfg.seed)
		ph, rel, err = rollingPhase(s, ws, w, w.windows(cfg.seconds), nil)
	} else {
		ws = fullWorkers(w, s, cfg.seed, 2)
		n := w.windows(cfg.seconds)
		ph, err = runPhase(ws, phaseSpec{
			warm:      w.warm,
			perWorker: n * w.windowOps / len(ws),
			step:      int64(w.windowOps),
			control:   markEvery(int64(w.windowOps), n),
		})
	}
	var heap float64
	if err == nil {
		// The upload pool is the benchmark's own memory; the live heap is
		// measured without it, with the stack and its connections up.
		dropUploadPool(ws)
		heap = liveHeapMiB()
	}
	closeAll(ws)
	if err != nil {
		return nil, nil, err
	}
	if !w.release {
		// Steady workloads end with one idle release of each proxy, so
		// release_ms is measured on every workload.
		if rel, err = idleReleases(s, nil); err != nil {
			return nil, nil, err
		}
	}
	res := &result{Attempted: ph.attempted, Failed: ph.failed, Metrics: map[string]metric{}}
	res.set("setup_s", setup, "s")
	res.set("throughput_ops", ph.stat((*window).throughput), "1/s")
	res.set("latency_p50_ms", ph.stat(func(w *window) float64 { return w.p50us })/1e3, "ms")
	res.set("latency_p90_ms", ph.stat(func(w *window) float64 { return w.p90us })/1e3, "ms")
	res.set("cpu_us_per_op", ph.stat((*window).cpuUS), "us")
	// Counts are not moved by the host, so they are taken over every
	// operation of the phase.
	res.set("allocs_per_op", ph.total.allocs(), "count")
	res.set("alloc_bytes_per_op", ph.total.allocB(), "B")
	res.set("rw_syscalls_per_op", ph.total.rw(), "count")
	res.set("live_heap_mb", heap, "MiB")
	res.set("release_ms", rel.medianMS(), "ms")
	acct := newAccounting(ph, vias)
	res.Correct = acct.correct()
	return res, acct, nil
}

func seconds(f float64) time.Duration { return time.Duration(f * float64(time.Second)) }

func closeAll(ws []worker) {
	for _, w := range ws {
		w.close()
	}
}

func dropUploadPool(ws []worker) {
	for _, w := range ws {
		if hw, ok := w.(*httpWorker); ok {
			hw.mix.bodies = nil
		}
	}
}

// accounting sorts a run's failed operations by class and, on
// release_rolling, says which of them the keep-alive drain fault
// explains. It is printed to standard error.
type accounting struct {
	Attempted   int64            `json:"attempted"`
	Failed      int64            `json:"failed"`
	Classes     map[string]int64 `json:"classes"`
	Explained   int64            `json:"explained_by_keepalive_drain"`
	Unexplained int64            `json:"unexplained"`
	Violations  []string         `json:"violations,omitempty"`
	FirstErrors []string         `json:"first_errors,omitempty"`
	PeelFailed  int64            `json:"peel_failed,omitempty"`
}

func newAccounting(ph *phase, vias []*viaCheck) *accounting {
	a := &accounting{
		Attempted:   ph.attempted,
		Failed:      ph.failed,
		Classes:     ph.classes,
		FirstErrors: ph.firstErrs,
		Unexplained: ph.failed,
	}
	if vias != nil {
		a.Unexplained = 0
		for _, v := range vias {
			a.Explained += v.explained
			a.Unexplained += v.unexplained
			a.Violations = append(a.Violations, v.violations...)
		}
	}
	return a
}

// correct is false when any response carried wrong bytes or a release
// broke a Via property; failed operations of other classes are counted,
// not judged.
func (a *accounting) correct() bool {
	return a.Classes[classWrong] == 0 && len(a.Violations) == 0
}

func (a *accounting) print(name string, cfg config) {
	b, _ := json.Marshal(a)
	fmt.Fprintf(os.Stderr, "e2ebench: accounting workload=%s seed=%d trace=%v %s\n", name, cfg.seed, cfg.trace, b)
}

// releaseLog records the releases of a run.
type releaseLog struct {
	restarts     []time.Duration
	edgeReleases int
	tunnelDials  int64 // edge tunnel dials while the releases ran
	failures     int64 // failed operations while the releases ran
}

// release restarts one slot, timing ProxySlot.Restart. A nil parent
// leaves the restart untraced.
func (r *releaseLog) release(s *stack, slot *core.ProxySlot, parent *obs.Span) error {
	t0 := time.Now()
	if err := slot.Restart(core.WithTrace(parent)); err != nil {
		return fmt.Errorf("restart %s: %w", slot.SlotName, err)
	}
	r.restarts = append(r.restarts, time.Since(t0))
	if slot == s.edge {
		r.edgeReleases++
	}
	return nil
}

func (r *releaseLog) medianMS() float64 {
	ms := make([]float64, len(r.restarts))
	for i, d := range r.restarts {
		ms[i] = float64(d) / 1e6
	}
	return median(ms)
}

// idleReleases restarts the edge and both origins once each with no
// traffic running, and waits for their drains.
func idleReleases(s *stack, parent *obs.Span) (*releaseLog, error) {
	rel := &releaseLog{}
	dials := s.edgeReg.CounterValue("edge.tunnel.dials")
	for _, slot := range s.slots() {
		if err := rel.release(s, slot, parent); err != nil {
			return nil, err
		}
	}
	s.waitDrains()
	rel.tunnelDials = s.edgeReg.CounterValue("edge.tunnel.dials") - dials
	return rel, nil
}
