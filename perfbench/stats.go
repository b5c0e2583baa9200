package main

import (
	"cmp"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

// quantile returns the nearest-rank q-quantile of ds in milliseconds.
func quantileMs(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.5) - 1
	i = min(max(i, 0), len(s)-1)
	return float64(s[i]) / float64(time.Millisecond)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// ratio is num/den, or 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// numSlices is how many equal parts of the measured window each read
// timing is computed over. A run reports the median over the quietest
// half of the parts, so interference on a shared host moves few of the
// parts that count, and the result little.
const numSlices = 20

// quietest returns, in slice order, the indexes of the half of the
// slices in which the hypervisor stole the least CPU time. Steal comes
// from other tenants of the host, never from the program measured, so
// choosing slices by it biases no timing towards the program's good
// moments.
func quietest(steal []float64) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(steal[a], steal[b]) })
	idx = idx[:len(idx)/2]
	slices.Sort(idx)
	return idx
}

// pick returns xs[i] for each i in idx.
func pick(xs []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for j, i := range idx {
		out[j] = xs[i]
	}
	return out
}

// perSlice applies f to the samples of each part of the window; at
// gives each sample's offset into the window.
func perSlice(at, vals []time.Duration, measure time.Duration, f func([]time.Duration) float64) []float64 {
	parts := make([][]time.Duration, numSlices)
	for i, t := range at {
		if k := int(int64(t) * numSlices / int64(measure)); k >= 0 && k < numSlices {
			parts[k] = append(parts[k], vals[i])
		}
	}
	out := make([]float64, numSlices)
	for k, p := range parts {
		out[k] = f(p)
	}
	return out
}

// cpuTimes is the host-wide line of /proc/stat, in clock ticks.
type cpuTimes struct{ total, idle, steal float64 }

func readCPU() cpuTimes {
	var t cpuTimes
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		t.total += v
		switch i {
		case 3, 4: // idle, iowait
			t.idle += v
		case 7:
			t.steal += v
		}
	}
	return t
}

// since reports the shares of host CPU time that were idle and stolen by
// the hypervisor between t0 and t: interference the benchmark cannot
// control, recorded so a slow run can be told apart from a slow change.
func (t cpuTimes) since(t0 cpuTimes) map[string]float64 {
	d := t.total - t0.total
	return map[string]float64{"idle_share": ratio(t.idle-t0.idle, d), "steal_share": ratio(t.steal-t0.steal, d)}
}
