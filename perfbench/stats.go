package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// tally accumulates one closed-loop window: every attempted statement,
// every failure (error, wrong answer or missed deadline) and the
// latency at the client of every statement that succeeded, by class
// (the query name, or "prepared"/"adhoc" on serve-lookup).
type tally struct {
	attempted, failed int
	// lat holds latencies in ms; float32 keeps a long window's samples
	// from inflating the process's peak RSS, which the benchmark reports.
	lat    map[string][]float32
	window time.Duration
	// firstErr keeps the first failure's reason for the log.
	firstErr string
}

func (t *tally) ok(class string, d time.Duration) {
	t.attempted++
	if t.lat == nil {
		t.lat = map[string][]float32{}
	}
	t.lat[class] = append(t.lat[class], float32(float64(d)/float64(time.Millisecond)))
}

func (t *tally) fail(class string, err error) {
	t.attempted++
	t.failed++
	if t.firstErr == "" {
		t.firstErr = fmt.Sprintf("%s: %v", class, err)
	}
}

// add folds another window's statements into t.
func (t *tally) add(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for class, v := range o.lat {
		if t.lat == nil {
			t.lat = map[string][]float32{}
		}
		t.lat[class] = append(t.lat[class], v...)
	}
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
}

// merge folds a later window into t, windows included.
func (t *tally) merge(o *tally) {
	t.add(o)
	t.window += o.window
}

// completed is the number of statements that succeeded.
func (t *tally) completed() int {
	n := 0
	for _, v := range t.lat {
		n += len(v)
	}
	return n
}

// qps is completed statements per second of the window.
func (t *tally) qps() float64 {
	if t.window <= 0 {
		return 0
	}
	return float64(t.completed()) / t.window.Seconds()
}

// millis returns the latencies of one class ("" = all), in ms.
func (t *tally) millis(class string) []float64 {
	var out []float64
	for c, v := range t.lat {
		if class == "" || c == class {
			for _, x := range v {
				out = append(out, float64(x))
			}
		}
	}
	return out
}

// quantile returns the q-quantile of v by linear interpolation between
// order statistics (v is sorted in place). Empty input gives 0.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// gmean is the geometric mean of positive values.
func gmean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(v)))
}

// peakRSSMB reads VmHWM, the peak resident set, of a process ("self" or
// a pid) from procfs, in MiB.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM of %s: %w", pid, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
