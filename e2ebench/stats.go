package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

var inf = math.Inf(1)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks, sorting xs in place. Empty input
// gives 0; a +Inf sample (a missed request) sorts last and so counts as
// missing every latency limit.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(xs[hi], 1) {
		return xs[hi]
	}
	return xs[lo] + (pos-float64(lo))*(xs[hi]-xs[lo])
}

// windows is how many consecutive stretches of a run windowed splits its
// samples into.
const windows = 5

// windowed returns the median, over windows consecutive stretches of xs
// (samples in time order), of each stretch's q-quantile, so a burst of
// load on the shared machine moves one stretch rather than the figure.
// xs is left unchanged.
func windowed(xs []float64, q float64) float64 {
	n := len(xs) / windows
	if n == 0 {
		return quantile(append([]float64(nil), xs...), q)
	}
	per := make([]float64, windows)
	for w := range per {
		per[w] = quantile(append([]float64(nil), xs[w*n:(w+1)*n]...), q)
	}
	return quantile(per, 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// fingerprint identifies the machine a result was measured on, so figures
// from different hosts are never compared unknowingly.
type fingerprint struct {
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func machine() fingerprint {
	fp := fingerprint{
		GOARCH:     runtime.GOARCH,
		CPU:        "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return fp
}
