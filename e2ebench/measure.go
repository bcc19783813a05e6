package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"zdr/internal/netx"
)

// counters is one snapshot of the process-wide costs a phase is charged
// with. Deltas between two snapshots cover every goroutine in the
// process: the client, every tier of the stack, and the runtime.
type counters struct {
	cpu     time.Duration // user + system CPU time
	mallocs uint64
	bytes   uint64
	numGC   uint32
	rw      int64 // syscr + syscw from /proc/self/io
	relay   netx.RelayStats
	// Ticks of the whole machine from /proc/stat: all of them, and those
	// in which the host ran something else while a virtual CPU was ready.
	ticks, steal int64
}

func snapshot() (counters, error) {
	var c counters
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.bytes, c.numGC = ms.Mallocs, ms.TotalAlloc, ms.NumGC
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return c, fmt.Errorf("getrusage: %w", err)
	}
	c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	rw, err := readRWSyscalls()
	if err != nil {
		return c, err
	}
	c.rw = rw
	c.relay = netx.ReadRelayStats()
	if c.ticks, c.steal, err = readSteal(); err != nil {
		return c, err
	}
	return c, nil
}

// readSteal returns the machine's CPU ticks and steal ticks, summed over
// its CPUs: the first eight fields of the "cpu" line of /proc/stat, of
// which the eighth is steal.
func readSteal() (ticks, steal int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, fmt.Errorf("steal time: %w", err)
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0, 0, fmt.Errorf("steal time: unexpected /proc/stat line %q", line)
	}
	for i := 1; i <= 8; i++ {
		n, err := strconv.ParseInt(string(f[i]), 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parse /proc/stat: %w", err)
		}
		ticks += n
		if i == 8 {
			steal = n
		}
	}
	return ticks, steal, nil
}

// readRWSyscalls returns syscr + syscw for this process.
func readRWSyscalls() (int64, error) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0, fmt.Errorf("read-write syscall counts: %w", err)
	}
	defer f.Close()
	var total int64
	found := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Bytes()
		for _, key := range [][]byte{[]byte("syscr: "), []byte("syscw: ")} {
			if bytes.HasPrefix(line, key) {
				n, err := strconv.ParseInt(string(line[len(key):]), 10, 64)
				if err != nil {
					return 0, fmt.Errorf("parse /proc/self/io: %w", err)
				}
				total += n
				found++
			}
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("read /proc/self/io: %w", err)
	}
	if found != 2 {
		return 0, fmt.Errorf("/proc/self/io has no syscr/syscw lines")
	}
	return total, nil
}

// window is the cost of the operations that completed in one stretch of
// a phase.
type window struct {
	attempted int64
	ok        int64
	wall      time.Duration
	cost      counters // after minus before
	p50us     float64
	p90us     float64
}

func (w *window) perOp(v float64) float64 {
	if w.attempted == 0 {
		return 0
	}
	return v / float64(w.attempted)
}

func (w *window) cpuUS() float64      { return w.perOp(float64(w.cost.cpu) / 1e3) }
func (w *window) allocs() float64     { return w.perOp(float64(w.cost.mallocs)) }
func (w *window) allocB() float64     { return w.perOp(float64(w.cost.bytes)) }
func (w *window) rw() float64         { return w.perOp(float64(w.cost.rw)) }
func (w *window) throughput() float64 { return float64(w.ok) / w.wall.Seconds() }

// stolen is the share of the machine's CPU time the host took away
// during the window.
func (w *window) stolen() float64 {
	if w.cost.ticks <= 0 {
		return 0
	}
	return float64(w.cost.steal) / float64(w.cost.ticks)
}

// phase is one measured stretch of closed-loop operations: its totals,
// and for counted phases the same figures per window.
type phase struct {
	total     window
	windows   []window
	attempted int64
	failed    int64
	classes   map[string]int64
	firstErrs []string
	// h2t timings, filled by tunnel workers only.
	open, first []time.Duration
}

// stat is f over the phase. With windows it is the median over the
// quiet ones (see quiet), so load from outside the process moves fewer
// windows than the figure; without, f over the whole phase.
func (p *phase) stat(f func(*window) float64) float64 {
	if len(p.windows) == 0 {
		return f(&p.total)
	}
	ws := quiet(p.windows)
	vals := make([]float64, len(ws))
	for i := range ws {
		vals[i] = f(&ws[i])
	}
	return median(vals)
}

// stealSlack is how much more of the CPU the host may have taken in a
// window than in the run's quietest one for the window still to count as
// quiet.
const stealSlack = 0.02

// quiet returns the windows in which the host took the least CPU time:
// those within stealSlack of the quietest window, and never fewer than a
// third of them. On a shared virtual machine the host's steal time moves
// between 0 and 40 % over seconds to minutes, and throughput halves with
// it; a run on a quiet host keeps all its windows.
func quiet(ws []window) []window {
	s := append([]window(nil), ws...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].stolen() < s[j].stolen() })
	n := (len(s) + 2) / 3
	for n < len(s) && s[n].stolen() <= s[0].stolen()+stealSlack {
		n++
	}
	return s[:n]
}

func diff(after, before counters) counters {
	return counters{
		cpu:     after.cpu - before.cpu,
		mallocs: after.mallocs - before.mallocs,
		bytes:   after.bytes - before.bytes,
		numGC:   after.numGC - before.numGC,
		rw:      after.rw - before.rw,
		ticks:   after.ticks - before.ticks,
		steal:   after.steal - before.steal,
		relay: netx.RelayStats{
			SpliceBytes:     after.relay.SpliceBytes - before.relay.SpliceBytes,
			CopyBytes:       after.relay.CopyBytes - before.relay.CopyBytes,
			SpliceFallbacks: after.relay.SpliceFallbacks - before.relay.SpliceFallbacks,
			SpliceCalls:     after.relay.SpliceCalls - before.relay.SpliceCalls,
		},
	}
}

// quantileUS returns the q-quantile of ds in microseconds, interpolating
// between the two nearest ranks. ds is sorted in place.
func quantileUS(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	pos := q * float64(len(ds)-1)
	lo := int(pos)
	hi := lo
	if hi+1 < len(ds) {
		hi++
	}
	frac := pos - float64(lo)
	v := float64(ds[lo]) + frac*float64(ds[hi]-ds[lo])
	return v / 1e3
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// liveHeapMiB returns the heap still in use after forced collections.
// The second collection empties the sync.Pool victim caches, whose
// contents depend on when the last automatic collection happened to run.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
