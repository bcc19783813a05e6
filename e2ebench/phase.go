package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"zdr/internal/obs"
)

// phaseSpec says how long a phase runs: for dur when perWorker is 0,
// otherwise for exactly perWorker operations per worker. control, when
// set, runs beside the workers; it is sent the count of completed
// operations each time that count reaches a multiple of step, and cuts the
// phase into windows by calling mark.
type phaseSpec struct {
	warm      int
	dur       time.Duration
	perWorker int
	step      int64
	control   func(steps <-chan int64, mark func() error) error
}

// opRecord is one operation: when it completed, counted from the start
// of the phase, and its latency (-1 when it failed).
type opRecord struct {
	end time.Duration
	dur time.Duration
}

type workerResult struct {
	ops     []opRecord
	failed  int64
	classes map[string]int64
	errs    []string
}

// mark is a snapshot taken at a window boundary.
type mark struct {
	at   time.Duration
	done int64
	c    counters
}

// runPhase warms the workers up, then runs them as closed loops and
// charges the phase with everything the process spent meanwhile.
func runPhase(ws []worker, spec phaseSpec) (*phase, error) {
	if err := warmUp(ws, spec.warm); err != nil {
		return nil, err
	}
	before, err := snapshot()
	if err != nil {
		return nil, err
	}
	results := make([]workerResult, len(ws))
	var done atomic.Int64
	var steps chan int64
	if spec.control != nil {
		// Sized to every step a counted phase can reach, so no worker
		// ever blocks on it.
		steps = make(chan int64, int64(spec.perWorker*len(ws))/spec.step+1)
	}
	finished := make(chan struct{})
	start := time.Now()
	deadline := start.Add(spec.dur)
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func(r *workerResult, w worker) {
			defer wg.Done()
			r.ops = make([]opRecord, 0, 1<<14)
			r.classes = map[string]int64{}
			for n := 0; ; n++ {
				if spec.perWorker > 0 {
					if n >= spec.perWorker {
						return
					}
				} else if !time.Now().Before(deadline) {
					return
				}
				o := w.op()
				if n := done.Add(1); steps != nil && n%spec.step == 0 {
					steps <- n
				}
				rec := opRecord{end: time.Since(start), dur: o.dur}
				if o.class != "" {
					rec.dur = -1
					r.failed++
					r.classes[o.class]++
					if len(r.errs) < 3 {
						r.errs = append(r.errs, fmt.Sprintf("%s: %v", o.class, o.err))
					}
				}
				r.ops = append(r.ops, rec)
			}
		}(&results[i], w)
	}
	go func() {
		wg.Wait()
		if steps != nil {
			close(steps)
		}
		close(finished)
	}()

	var marks []mark
	markNow := func() error {
		n := done.Load()
		c, err := snapshot()
		if err != nil {
			return err
		}
		marks = append(marks, mark{at: time.Since(start), done: n, c: c})
		return nil
	}
	var ctlErr error
	if spec.control != nil {
		ctlErr = spec.control(steps, markNow)
	}
	<-finished
	wall := time.Since(start)
	after, err := snapshot()
	if err == nil {
		err = ctlErr
	}
	if err != nil {
		return nil, err
	}

	ph := &phase{classes: map[string]int64{}}
	var ops []opRecord
	for _, r := range results {
		ops = append(ops, r.ops...)
		ph.failed += r.failed
		for k, v := range r.classes {
			ph.classes[k] += v
		}
		ph.firstErrs = append(ph.firstErrs, r.errs...)
	}
	ph.attempted = int64(len(ops))
	ph.total = makeWindow(ops, ph.attempted, wall, diff(after, before))
	if len(marks) > 0 {
		marks = append([]mark{{c: before}}, marks...)
		marks = append(marks, mark{at: wall, done: ph.attempted, c: after})
		for k := 1; k < len(marks); k++ {
			lo, hi := marks[k-1], marks[k]
			var in []opRecord
			for _, o := range ops {
				if o.end >= lo.at && o.end < hi.at || k == len(marks)-1 && o.end >= lo.at {
					in = append(in, o)
				}
			}
			ph.windows = append(ph.windows, makeWindow(in, hi.done-lo.done, hi.at-lo.at, diff(hi.c, lo.c)))
		}
	}
	for _, w := range ws {
		if tw, ok := w.(*tunnelWorker); ok {
			ph.open = append(ph.open, tw.open...)
			ph.first = append(ph.first, tw.first...)
			tw.open, tw.first = nil, nil
		}
	}
	return ph, nil
}

// makeWindow summarises the operations that completed in one window.
// attempted comes from the operation counter read with the snapshot, so
// costs and operations cover the same stretch.
func makeWindow(ops []opRecord, attempted int64, wall time.Duration, cost counters) window {
	lat := make([]time.Duration, 0, len(ops))
	for _, o := range ops {
		if o.dur >= 0 {
			lat = append(lat, o.dur)
		}
	}
	return window{
		attempted: attempted,
		ok:        int64(len(lat)),
		wall:      wall,
		cost:      cost,
		p50us:     quantileUS(lat, 0.5),
		p90us:     quantileUS(lat, 0.9),
	}
}

// warmUp runs untimed operations so first tunnel dials, buffer pools and
// lazily built state are in place before timing starts. A failure here
// means the stack is not healthy, and the run stops.
func warmUp(ws []worker, n int) error {
	errs := make([]error, len(ws))
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func(i int, w worker) {
			defer wg.Done()
			for j := 0; j < n; j++ {
				if o := w.op(); o.class != "" {
					errs[i] = fmt.Errorf("warm-up operation %d: %s: %v", j, o.class, o.err)
					return
				}
			}
		}(i, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for _, w := range ws {
		if tw, ok := w.(*tunnelWorker); ok {
			tw.open, tw.first = tw.open[:0], tw.first[:0]
		}
	}
	return nil
}

// markEvery cuts a counted phase into windows of n operations each; the
// phase's step must be n.
func markEvery(n int64, windows int) func(<-chan int64, func() error) error {
	return func(steps <-chan int64, mark func() error) error {
		for done := range steps {
			if done < int64(windows)*n {
				if err := mark(); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// rollingWorkers returns the release_rolling clients: the api_get_1k mix
// on the edge web VIP, each following the edge generations it meets.
func rollingWorkers(s *stack, seed uint64) ([]worker, []*viaCheck) {
	mix := newHTTPMix(seed, false)
	ws := make([]worker, 2)
	vias := make([]*viaCheck, 2)
	for i := range ws {
		hw := newHTTPWorker(s.webAddr(), mix, seed, i)
		hw.via = &viaCheck{s: s}
		ws[i], vias[i] = hw, hw.via
	}
	return ws, vias
}

// rollingPhase runs the release_rolling traffic while Socket Takeover
// restarts go edge → origin0 → origin1 → edge …, one release per window
// of windowOps operations. Releases are paced by operations served, not by
// wall clock: release i starts once i*windowOps + windowOps/8 operations
// have completed, and the phase attempts exactly releases*windowOps
// operations, so every run holds the same hand-offs and the same share of
// failed operations. The phase ends only after the last old generation
// has drained.
func rollingPhase(s *stack, ws []worker, w workload, releases int, parent *obs.Span) (*phase, *releaseLog, error) {
	rel := &releaseLog{}
	slots := s.slots()
	k := int64(w.windowOps)
	control := func(steps <-chan int64, mark func() error) error {
		dials := s.edgeReg.CounterValue("edge.tunnel.dials")
		for done := range steps {
			i := done / k
			switch {
			case done%k == 0 && i < int64(releases):
				if err := mark(); err != nil {
					return err
				}
			case done%k == k/8:
				if err := rel.release(s, slots[i%int64(len(slots))], parent); err != nil {
					return err
				}
			}
		}
		if len(rel.restarts) != releases {
			return fmt.Errorf("%d of %d releases ran", len(rel.restarts), releases)
		}
		s.waitDrains()
		rel.tunnelDials = s.edgeReg.CounterValue("edge.tunnel.dials") - dials
		return nil
	}
	ph, err := runPhase(ws, phaseSpec{
		warm:      w.warm,
		perWorker: releases * w.windowOps / len(ws),
		step:      k / 8,
		control:   control,
	})
	if err != nil {
		return nil, nil, err
	}
	for _, w := range ws {
		w.(*httpWorker).via.finish()
	}
	rel.failures = ph.failed
	return ph, rel, nil
}
