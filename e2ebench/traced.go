package main

import (
	"errors"
	"time"

	"zdr/internal/metrics"
	"zdr/internal/obs"
)

// Share of --seconds each phase of a traced run measures. The workload's
// own protocol gets the long phases; the protocol it does not carry is
// peeled with a short reference mix (the api_get_1k requests, or the
// mqtt_pubsub publish loop), so every per-layer metric has a value on
// every workload.
const (
	ownFull, ownOrigin, ownApp = 0.40, 0.25, 0.20
	ownMQTTFull, ownBroker     = 0.45, 0.35
	refFull, refOrigin, refApp = 0.08, 0.06, 0.06
	refMQTTFull, refBroker     = 0.075, 0.075
	peelWarm                   = 100
)

// httpLayers is an HTTP mix measured three ways: through the whole
// stack, as h2t streams straight into the origins, and straight at the
// app servers. Subtracting neighbours peels each tier's own cost.
type httpLayers struct {
	full, origin, app *phase
	// p50s of the program's own latency histograms over the full phase.
	edgeHTTPus, edgeTunnelUS, originHTTPus float64
	// p50 of the program's edge.http spans over the full phase: the
	// edge's own view of a request, to the microsecond.
	edgeSpanUS float64
}

type mqttLayers struct {
	full, broker *phase
}

func traced(w workload, s *stack, cfg config) (*result, *accounting, error) {
	releases := obs.NewTracer("e2ebench-releases")
	root := releases.StartSpan("e2ebench.releases", obs.SpanContext{})
	T := cfg.seconds
	var own *phase
	var vias []*viaCheck
	var rel *releaseLog
	var hl *httpLayers
	var ml *mqttLayers
	var err error
	if w.mqtt {
		if ml, err = peelMQTT(s, cfg.seed, w.warm, T*ownMQTTFull, T*ownBroker); err != nil {
			return nil, nil, err
		}
		own = ml.full
		mix := newHTTPMix(cfg.seed, false)
		full := func() (*phase, error) { return timedHTTP(s.webAddrs(2), mix, cfg.seed, peelWarm, T*refFull) }
		if hl, err = peelHTTP(s, mix, cfg.seed, full, T*refOrigin, T*refApp); err != nil {
			return nil, nil, err
		}
	} else {
		mix := newHTTPMix(cfg.seed, w.upload)
		full := func() (*phase, error) { return timedHTTP(s.webAddrs(2), mix, cfg.seed, w.warm, T*ownFull) }
		if w.release {
			full = func() (*phase, error) {
				ws, vs := rollingWorkers(s, cfg.seed)
				defer closeAll(ws)
				vias = vs
				ph, r, err := rollingPhase(s, ws, w, 3, root)
				rel = r
				return ph, err
			}
		}
		if hl, err = peelHTTP(s, mix, cfg.seed, full, T*ownOrigin, T*ownApp); err != nil {
			return nil, nil, err
		}
		own = hl.full
		if ml, err = peelMQTT(s, cfg.seed, peelWarm, T*refMQTTFull, T*refBroker); err != nil {
			return nil, nil, err
		}
	}
	if rel == nil {
		if rel, err = idleReleases(s, root); err != nil {
			return nil, nil, err
		}
	}
	root.End()

	acct := newAccounting(own, vias)
	for _, ph := range []*phase{hl.full, hl.origin, hl.app, ml.full, ml.broker} {
		if ph != own {
			acct.PeelFailed += ph.failed
			acct.FirstErrors = append(acct.FirstErrors, ph.firstErrs...)
		}
	}
	if acct.PeelFailed > 0 {
		// A tier whose peel failed operations has no figures to subtract;
		// the run reports nothing rather than wrong layer figures.
		return nil, acct, errors.New("a peel phase failed operations; see the accounting line")
	}

	res := &result{Correct: acct.correct(), Attempted: own.attempted, Failed: own.failed, Metrics: map[string]metric{}}
	setLayerMetrics(res, hl, ml, own, rel, releases.Finished())
	return res, acct, nil
}

func (s *stack) webAddrs(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = s.webAddr()
	}
	return out
}

// timedHTTP runs two HTTP clients against addrs for secs seconds.
func timedHTTP(addrs []string, mix *httpMix, seed uint64, warm int, secs float64) (*phase, error) {
	ws := make([]worker, len(addrs))
	for i, a := range addrs {
		ws[i] = newHTTPWorker(a, mix, seed, i)
	}
	defer closeAll(ws)
	return runPhase(ws, phaseSpec{warm: warm, dur: seconds(secs)})
}

// peelHTTP measures the full path with runFull, then the same mix as h2t
// streams into each origin's tunnel VIP, then straight at the app
// servers.
func peelHTTP(s *stack, mix *httpMix, seed uint64, runFull func() (*phase, error), originSecs, appSecs float64) (*httpLayers, error) {
	hl := &httpLayers{}
	edgeHTTP := s.edgeReg.AtomicHistogram("edge.http.latency").Snapshot()
	edgeTunnel := s.edgeReg.AtomicHistogram("edge.tunnel.latency").Snapshot()
	originHTTP := s.originLatency()
	s.trace.Reset()
	var err error
	if hl.full, err = runFull(); err != nil {
		return nil, err
	}
	var edgeSpans []time.Duration
	for _, r := range s.trace.Finished() {
		if r.Name == "edge.http" {
			edgeSpans = append(edgeSpans, r.Duration())
		}
	}
	hl.edgeSpanUS = medianUS(edgeSpans)
	hl.edgeHTTPus = histP50us(s.edgeReg.AtomicHistogram("edge.http.latency").Snapshot().Sub(edgeHTTP))
	hl.edgeTunnelUS = histP50us(s.edgeReg.AtomicHistogram("edge.tunnel.latency").Snapshot().Sub(edgeTunnel))
	hl.originHTTPus = histP50us(s.originLatency().Sub(originHTTP))

	tunnels := s.tunnelAddrs()
	ws := make([]worker, 2)
	for i := range ws {
		ws[i] = newTunnelWorker(tunnels[i%len(tunnels)], mix, seed, i)
	}
	hl.origin, err = runPhase(ws, phaseSpec{warm: peelWarm, dur: seconds(originSecs)})
	closeAll(ws)
	if err != nil {
		return nil, err
	}
	apps := s.appAddrs()
	if hl.app, err = timedHTTP([]string{apps[0], apps[1%len(apps)]}, mix, seed, peelWarm, appSecs); err != nil {
		return nil, err
	}
	return hl, nil
}

// peelMQTT measures the publish loop through the edge, then straight at
// the broker.
func peelMQTT(s *stack, seed uint64, warm int, fullSecs, brokerSecs float64) (*mqttLayers, error) {
	ml := &mqttLayers{}
	run := func(addr, prefix string, warm int, secs float64) (*phase, error) {
		ws := []worker{newMQTTWorker(addr, prefix, seed, 0), newMQTTWorker(addr, prefix, seed, 1)}
		defer closeAll(ws)
		return runPhase(ws, phaseSpec{warm: warm, dur: seconds(secs)})
	}
	var err error
	if ml.full, err = run(s.mqttAddr(), "edge", warm, fullSecs); err != nil {
		return nil, err
	}
	if ml.broker, err = run(s.brokerLn.Addr().String(), "direct", peelWarm, brokerSecs); err != nil {
		return nil, err
	}
	return ml, nil
}

// originLatency merges both origins' request-latency histograms.
func (s *stack) originLatency() metrics.AtomicSnapshot {
	snap := s.originRegs[0].AtomicHistogram("origin.http.latency").Snapshot()
	for _, reg := range s.originRegs[1:] {
		snap.Merge(reg.AtomicHistogram("origin.http.latency").Snapshot())
	}
	return snap
}

func histP50us(s metrics.AtomicSnapshot) float64 { return s.Quantile(0.5) * 1e6 }

func medianUS(ds []time.Duration) float64 { return quantileUS(ds, 0.5) }

func setLayerMetrics(res *result, hl *httpLayers, ml *mqttLayers, own *phase, rel *releaseLog, spans []obs.SpanRecord) {
	app, org, full := &hl.app.total, &hl.origin.total, &hl.full.total
	res.set("appserver.p50_us", app.p50us, "us")
	res.set("appserver.cpu_us_per_op", app.cpuUS(), "us")
	res.set("appserver.allocs_per_op", app.allocs(), "count")
	res.set("appserver.alloc_bytes_per_op", app.allocB(), "B")
	res.set("appserver.rw_syscalls_per_op", app.rw(), "count")

	res.set("origin.self_p50_us", org.p50us-app.p50us, "us")
	res.set("origin.self_cpu_us_per_op", org.cpuUS()-app.cpuUS(), "us")
	res.set("origin.self_allocs_per_op", org.allocs()-app.allocs(), "count")
	res.set("origin.self_alloc_bytes_per_op", org.allocB()-app.allocB(), "B")
	res.set("origin.self_rw_syscalls_per_op", org.rw()-app.rw(), "count")

	// The client's own share of the full path is what the edge's
	// edge.http span does not cover; the edge's self time is what remains
	// after the origin path and that residual are taken away. So the four
	// peeled p50s add up to the full-path p50. (The proxies' histograms
	// have ×2 buckets, too coarse to subtract from.)
	residual := full.p50us - hl.edgeSpanUS
	res.set("edge.self_p50_us", full.p50us-org.p50us-residual, "us")
	res.set("edge.self_cpu_us_per_op", full.cpuUS()-org.cpuUS(), "us")
	res.set("edge.self_allocs_per_op", full.allocs()-org.allocs(), "count")
	res.set("edge.self_alloc_bytes_per_op", full.allocB()-org.allocB(), "B")
	res.set("edge.self_rw_syscalls_per_op", full.rw()-org.rw(), "count")

	res.set("h2t.open_stream_us", medianUS(hl.origin.open), "us")
	res.set("h2t.first_headers_us", medianUS(hl.origin.first), "us")

	ot := &own.total
	res.set("netx.copy_bytes_per_op", ot.perOp(float64(ot.cost.relay.CopyBytes)), "B")
	res.set("netx.splice_bytes_per_op", ot.perOp(float64(ot.cost.relay.SpliceBytes)), "B")
	res.set("netx.splice_calls_per_op", ot.perOp(float64(ot.cost.relay.SpliceCalls)), "count")

	br, mf := &ml.broker.total, &ml.full.total
	res.set("mqtt.broker_p50_us", br.p50us, "us")
	res.set("mqtt.broker_cpu_us_per_op", br.cpuUS(), "us")
	res.set("mqtt.broker_allocs_per_op", br.allocs(), "count")
	res.set("mqtt.broker_rw_syscalls_per_op", br.rw(), "count")
	res.set("relay.mqtt_self_p50_us", mf.p50us-br.p50us, "us")
	res.set("relay.mqtt_self_cpu_us_per_op", mf.cpuUS()-br.cpuUS(), "us")
	res.set("relay.mqtt_self_allocs_per_op", mf.allocs()-br.allocs(), "count")
	res.set("relay.mqtt_self_rw_syscalls_per_op", mf.rw()-br.rw(), "count")

	rs := releaseSpans(spans)
	res.set("core.restart_edge_ms", median(rs.edgeRestart), "ms")
	res.set("core.restart_origin_ms", median(rs.originRestart), "ms")
	res.set("takeover.handoff_ms", median(rs.handoff), "ms")
	res.set("takeover.rearm_ms", median(rs.rearm), "ms")
	res.set("proxy.drain_ms", median(rs.drain), "ms")
	res.set("edge.drain_failures_per_release", float64(rel.failures)/float64(rel.edgeReleases), "count")
	res.set("edge.tunnel_dials_per_release", float64(rel.tunnelDials)/float64(len(rel.restarts)), "count")

	res.set("go.gc_per_kop", ot.perOp(float64(ot.cost.numGC))*1e3, "count")

	res.set("edge.http_p50_us", hl.edgeHTTPus, "us")
	res.set("edge.tunnel_p50_us", hl.edgeTunnelUS, "us")
	res.set("origin.http_p50_us", hl.originHTTPus, "us")
	res.set("client.residual_us", residual, "us")

	res.set("traced.latency_p50_us", ot.p50us, "us")
	res.set("traced.cpu_us_per_op", ot.cpuUS(), "us")
	res.set("traced.allocs_per_op", ot.allocs(), "count")
}

// restartSpans holds the durations, in ms, read from the program's
// slot.restart, takeover.handoff and slot.drain spans.
type restartSpans struct {
	edgeRestart, originRestart, handoff, rearm, drain []float64
}

func releaseSpans(spans []obs.SpanRecord) restartSpans {
	ms := func(r obs.SpanRecord) float64 { return float64(r.Duration()) / 1e6 }
	handoff := map[string]float64{} // by parent slot.restart span
	var rs restartSpans
	for _, r := range spans {
		switch r.Name {
		case obs.SpanTakeoverHandoff:
			handoff[r.ParentID] += ms(r)
			rs.handoff = append(rs.handoff, ms(r))
		case obs.SpanSlotDrain:
			rs.drain = append(rs.drain, ms(r))
		}
	}
	for _, r := range spans {
		if r.Name != obs.SpanSlotRestart {
			continue
		}
		if r.Attrs["slot"] == "edge" {
			rs.edgeRestart = append(rs.edgeRestart, ms(r))
		} else {
			rs.originRestart = append(rs.originRestart, ms(r))
		}
		rs.rearm = append(rs.rearm, ms(r)-handoff[r.SpanID])
	}
	return rs
}
