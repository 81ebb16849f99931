package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the p-th percentile (0 < p < 100) of xs with the
// interpolation of Python's statistics.quantiles(method="exclusive"), the
// method the benchmark's spread check uses.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := p / 100 * float64(len(s)+1)
	j := int(math.Floor(pos))
	if j < 1 {
		j = 1
	}
	if j > len(s)-1 {
		j = len(s) - 1
	}
	frac := pos - float64(j)
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return s[j-1] + (s[j]-s[j-1])*frac
}

func median(xs []float64) float64 { return quantile(xs, 50) }

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// beyond is the number of samples above the p-th percentile: the guide's
// rule asks for at least ten.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// usage is getrusage for RUSAGE_SELF or RUSAGE_CHILDREN: CPU seconds (user
// plus system) and the peak resident set in MB.
func usage(who int) (cpuS, maxRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0, 0
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu.Seconds(), float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// procIO is the calling process's /proc/self/io counters: rchar/wchar count
// every byte through read/write-like calls (sockets included), writeBytes
// the bytes sent towards storage.
type procIO struct {
	rchar, wchar, writeBytes int64
}

func readProcIO() procIO {
	var io procIO
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return io
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		switch k {
		case "rchar":
			io.rchar = n
		case "wchar":
			io.wchar = n
		case "write_bytes":
			io.writeBytes = n
		}
	}
	return io
}

// callProbe measures one search call in a traced round: wall time, CPU,
// allocation and GC deltas, storage writes, and — from the search's
// progress callback — level durations and the live heap at each level.
// A nil probe (untraced round) measures nothing and hands out no callback,
// so untraced rounds run the program exactly as a caller would.
type callProbe struct {
	ex      *exploreStats
	start   time.Time
	ms0     runtime.MemStats
	cpu0    float64
	io0     procIO
	last    time.Time
	first   time.Time
	levels  []float64
	heapMax uint64
}

func beginCall(ex *exploreStats) *callProbe {
	if ex == nil {
		return nil
	}
	p := &callProbe{ex: ex}
	runtime.ReadMemStats(&p.ms0)
	p.heapMax = p.ms0.HeapInuse
	p.cpu0, _ = usage(syscall.RUSAGE_SELF)
	p.io0 = readProcIO()
	p.start = time.Now()
	p.last = p.start
	return p
}

// progress returns the OnProgress hook of the probe, nil when untraced.
func (p *callProbe) progress() func(visited, level int) {
	if p == nil {
		return nil
	}
	return func(_, level int) {
		now := time.Now()
		if p.first.IsZero() {
			p.first = now
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapInuse > p.heapMax {
			p.heapMax = ms.HeapInuse
		}
		// The serial arena engine reports every 8192 configurations with
		// level -1; only sealed levels count as levels.
		if level >= 0 {
			p.levels = append(p.levels, float64(now.Sub(p.last))/1e6)
			p.last = now
		}
	}
}

// end folds a call into the explore statistics. visited is the
// final phase's count as the program returned it; states is the number of
// configurations the call explored over both phases, from the expected
// table, since the serial engine does not report the first phase's count.
func (p *callProbe) end(visited, states int64) {
	if p == nil {
		return
	}
	wall := time.Since(p.start).Seconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu, _ := usage(syscall.RUSAGE_SELF)
	io := readProcIO()
	ex := p.ex
	ex.visited += visited
	ex.states += states
	ex.searchS += wall
	ex.cpuS += cpu - p.cpu0
	ex.allocBytes += ms.TotalAlloc - p.ms0.TotalAlloc
	ex.mallocs += ms.Mallocs - p.ms0.Mallocs
	ex.gcCycles += ms.NumGC - p.ms0.NumGC
	ex.gcPauseNs += ms.PauseTotalNs - p.ms0.PauseTotalNs
	ex.levels += len(p.levels)
	ex.levelMs = append(ex.levelMs, p.levels...)
	if mb := float64(p.heapMax) / (1 << 20); mb > ex.heapMaxMB {
		ex.heapMaxMB = mb
	}
	ex.writeBytes += io.writeBytes - p.io0.writeBytes
	if !p.first.IsZero() {
		ex.firstProgressMs = append(ex.firstProgressMs, float64(p.first.Sub(p.start))/1e6)
	}
}

// exploreStats accumulates the explore layer's figures over the traced
// search calls of a run.
type exploreStats struct {
	visited, states int64
	searchS, cpuS   float64
	allocBytes      uint64
	mallocs         uint64
	gcCycles        uint32
	gcPauseNs       uint64
	levels          int
	levelMs         []float64
	heapMaxMB       float64
	writeBytes      int64
	firstProgressMs []float64
}
