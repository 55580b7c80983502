package main

import (
	"bufio"
	"bytes"
	"math"
	"os"
	rtm "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the median of xs (NaN for none). xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (NaN for none). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailQuantile is the highest of the standard tail percentiles (p99.9,
// p99, p90, p50) that leaves at least ten samples beyond it.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.9} {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 0.5
}

// vmHWMMiB reads the process's peak resident set size from /proc.
func vmHWMMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return math.NaN()
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample reads one runtime/metrics value as a float (uint64 or
// float64 kinds; NaN otherwise).
func runtimeSample(name string) float64 {
	s := []rtm.Sample{{Name: name}}
	rtm.Read(s)
	switch s[0].Value.Kind() {
	case rtm.KindUint64:
		return float64(s[0].Value.Uint64())
	case rtm.KindFloat64:
		return s[0].Value.Float64()
	}
	return math.NaN()
}

// allocBytes is the cumulative heap allocation of the process.
func allocBytes() float64 { return runtimeSample("/gc/heap/allocs:bytes") }

// instruments is one scrape of a telemetry registry's Prometheus text:
// every sample line keyed by its series name including labels.
type instruments map[string]float64

// parseInstruments reads Prometheus text exposition into instruments.
func parseInstruments(text []byte) instruments {
	out := instruments{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
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

// sum adds every series of the family name (any labels).
func (in instruments) sum(name string) float64 {
	total := 0.0
	for k, v := range in {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// delta is after.sum(name) - before.sum(name).
func delta(before, after instruments, name string) float64 {
	return after.sum(name) - before.sum(name)
}

// cpuTicks is the machine's CPU time from /proc/stat in clock ticks,
// summed over its CPUs: busy counts every tick a CPU had work (user,
// nice, system, irq, softirq and steal), steal the busy ticks the
// hypervisor gave to other guests instead. A vCPU with nothing to run
// accrues no steal, so steal over busy is the share of the time the
// program wanted a CPU and did not get it.
type cpuTicks struct{ busy, steal float64 }

// readTicks reads the machine's CPU ticks (zero when /proc/stat cannot
// be read, which makes stolen report 0).
func readTicks() cpuTicks {
	var t cpuTicks
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return t
	}
	for i, v := range f[1:9] { // user nice system idle iowait irq softirq steal
		x, _ := strconv.ParseFloat(v, 64)
		switch i {
		case 3, 4:
		case 7:
			t.steal = x
			t.busy += x
		default:
			t.busy += x
		}
	}
	return t
}

// stolen is the share of the busy CPU time between two readings that
// the hypervisor gave to other guests.
func stolen(a, b cpuTicks) float64 {
	if b.busy <= a.busy {
		return 0
	}
	return (b.steal - a.steal) / (b.busy - a.busy)
}
