package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obsv"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 when xs is empty). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// median is quantile(xs, 0.5) on a copy.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// ratio is a/b, 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// us, ms and secs convert a duration to float microseconds,
// milliseconds and seconds.
func us(d time.Duration) float64   { return float64(d) / 1e3 }
func ms(d time.Duration) float64   { return float64(d) / 1e6 }
func secs(d time.Duration) float64 { return d.Seconds() }

// rssPeakMB reads the process's peak resident set (VmHWM) in MB.
func rssPeakMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// timeSetup runs setup reps times and returns the median wall time and
// the last setup's value; earlier values are released with drop.
func timeSetup[T any](reps int, setup func() (T, error), drop func(T)) (float64, T, error) {
	var v T
	times := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		if r > 0 {
			drop(v)
		}
		t0 := time.Now()
		var err error
		v, err = setup()
		if err != nil {
			return 0, v, err
		}
		times = append(times, secs(time.Since(t0)))
	}
	return median(times), v, nil
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

// counters is a delta-friendly view of an obsv registry snapshot.
type counters struct {
	c map[string]uint64
	h map[string]obsv.HistogramSnapshot
}

func snapshot(r *obsv.Registry) counters {
	s := r.Snapshot()
	return counters{c: s.Counters, h: s.Histograms}
}

// delta returns counter name's growth from before to after.
func delta(before, after counters, name string) float64 {
	return float64(after.c[name] - before.c[name])
}

// histMean returns the mean observation of histogram name between two
// snapshots (0 when nothing was observed).
func histMean(before, after counters, name string) float64 {
	a, b := after.h[name], before.h[name]
	return ratio(float64(a.SumNs-b.SumNs), float64(a.Count-b.Count))
}

// histQuantile estimates the q-quantile of an obsv log2 histogram from
// its cumulative Prometheus buckets, interpolating linearly inside the
// bucket that holds it (as Prometheus' histogram_quantile does) rather
// than reporting the bucket's upper bound. Returns 0 when empty.
func histQuantile(r *obsv.Registry, name string, q float64) (float64, error) {
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf, "b"); err != nil {
		return 0, err
	}
	prefix := "b_" + strings.ReplaceAll(name, ".", "_") + `_bucket{le="`
	type bucket struct{ le, cum float64 }
	var bs []bucket
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), prefix)
		if !ok {
			continue
		}
		le, cum, ok := strings.Cut(line, `"} `)
		if !ok || le == "+Inf" {
			continue
		}
		l, err1 := strconv.ParseFloat(le, 64)
		c, err2 := strconv.ParseFloat(cum, 64)
		if err1 != nil || err2 != nil {
			return 0, fmt.Errorf("parsing histogram line %q", sc.Text())
		}
		bs = append(bs, bucket{l, c})
	}
	if len(bs) == 0 || bs[len(bs)-1].cum == 0 {
		return 0, nil
	}
	rank := q * bs[len(bs)-1].cum
	lo, below := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= rank && b.cum > below {
			return lo + (b.le-lo)*(rank-below)/(b.cum-below), nil
		}
		lo, below = b.le, b.cum
	}
	return math.NaN(), fmt.Errorf("histogram %s: rank %g beyond its buckets", name, rank)
}
