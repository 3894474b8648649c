package main

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile is the nearest-rank q-quantile of xs (sorted in place). A
// failed op enters as math.MaxFloat64, so it misses every latency limit.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(i, 0)]
}

// beyond is the number of samples strictly past the q-quantile's rank:
// the tail a percentile rests on.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	return quantile(c, 0.5)
}

// residentMB reads the process's resident set.
func residentMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// rssSampler reads the resident set every few milliseconds during the
// timed phase, so each round's peak can be found afterwards.
type rssSampler struct {
	stop, done chan struct{}
	at         []time.Time
	mb         []float64
}

func sampleRSS(every time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			s.at = append(s.at, time.Now())
			s.mb = append(s.mb, residentMB())
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and waits until it has.
func (s *rssSampler) finish() {
	close(s.stop)
	<-s.done
}

// peak is the highest reading between from and to.
func (s *rssSampler) peak(from, to time.Time) float64 {
	var p float64
	for i, t := range s.at {
		if !t.Before(from) && !t.After(to) {
			p = max(p, s.mb[i])
		}
	}
	return p
}

// cpuTimes is the aggregate line of /proc/stat: total jiffies and the
// share the hypervisor stole.
type cpuTimes struct{ total, steal float64 }

func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var ct cpuTimes
	for i, s := range f[1:] {
		v, _ := strconv.ParseFloat(s, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest is inside user
			ct.total += v
		}
		if i == 7 {
			ct.steal = v
		}
	}
	return ct
}

// stealPct is the host's CPU steal share between two readings.
func stealPct(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * (b.steal - a.steal) / (b.total - a.total)
}

// rtSample is the Go runtime's cumulative allocation and GC counters.
type rtSample struct {
	allocBytes, gcCycles, gcPauseSec float64
}

func readRuntime() rtSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(s)
	var r rtSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		r.gcCycles = float64(s[1].Value.Uint64())
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		// The runtime keeps pauses only as a histogram; each bucket counts
		// at its midpoint (the buckets are narrow, so the sum is close).
		h := s[2].Value.Float64Histogram()
		for i, n := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			r.gcPauseSec += float64(n) * (lo + hi) / 2
		}
	}
	return r
}

// promSample maps "name" or "name{labels}" to the value of one series in
// a Prometheus text page.
type promSample map[string]float64

func parseProm(page []byte) promSample {
	out := promSample{}
	sc := bufio.NewScanner(bytes.NewReader(page))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// delta is after−before for one series.
func (after promSample) delta(before promSample, series string) float64 {
	return after[series] - before[series]
}
