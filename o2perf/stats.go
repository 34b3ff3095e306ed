package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validate checks every name against the result format and every value
// for being a finite number.
func (m metrics) validate() error {
	for n, v := range m {
		if !metricName.MatchString(n) {
			return fmt.Errorf("metric name %q is not [A-Za-z0-9_.-]+", n)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is not finite", n)
		}
	}
	return nil
}

// minP90Samples is the sample count below which a p90 is not reported:
// with fewer, fewer than ten samples lie beyond it.
const minP90Samples = 100

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. xs must be sorted and non-empty.
func quantile(xs []float64, q float64) float64 {
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (pos-float64(lo))*(xs[hi]-xs[lo])
}

// latencyQuantiles sorts xs and returns its median and p90. It refuses to
// report a p90 from fewer than minP90Samples samples.
func latencyQuantiles(xs []float64) (p50, p90 float64, err error) {
	if len(xs) < minP90Samples {
		return 0, 0, fmt.Errorf("%d latency samples, need at least %d for a p90", len(xs), minP90Samples)
	}
	sort.Float64s(xs)
	return quantile(xs, 0.5), quantile(xs, 0.9), nil
}

// median returns the median of xs (0 for none), sorting xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return quantile(xs, 0.5)
}

// windowRates splits a phase of length d into consecutive windows of
// length w and returns each window's completion rate per second: the
// completions after a window's first one, over the time from its first
// to its last. done holds completion times as offsets from the phase
// start. If no whole window fits in d, the one window is the whole phase.
func windowRates(done []time.Duration, d, w time.Duration) []float64 {
	n := int(d / w)
	if n == 0 {
		n, w = 1, d
	}
	first := make([]time.Duration, n)
	last := make([]time.Duration, n)
	counts := make([]int, n)
	for _, t := range done {
		k := int(t / w)
		if k >= n {
			continue
		}
		if counts[k] == 0 || t < first[k] {
			first[k] = t
		}
		if t > last[k] {
			last[k] = t
		}
		counts[k]++
	}
	var rates []float64
	for k, c := range counts {
		if c > 1 && last[k] > first[k] {
			rates = append(rates, float64(c-1)/(last[k]-first[k]).Seconds())
		}
	}
	return rates
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const mib = 1 << 20

// medianSetup runs setup n times and returns the last result with the
// median wall time in seconds, so that set-up cost is reported without
// its run-to-run variance. Every earlier result is handed to release,
// which may be nil, outside the timed interval.
func medianSetup[T any](n int, setup func() (T, error), release func(T) error) (T, float64, error) {
	var last, zero T
	var times []float64
	for i := 0; i < n; i++ {
		runtime.GC() // each set-up starts from a collected heap, not the last one's garbage
		start := time.Now()
		v, err := setup()
		if err != nil {
			if i > 0 && release != nil {
				_ = release(last) // the set-up error is the one to report
			}
			return zero, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i > 0 && release != nil {
			if err := release(last); err != nil {
				_ = release(v) // the first release error is the one to report
				return zero, 0, err
			}
		}
		last = v
	}
	return last, median(times), nil
}

// peakRSSMB returns the process's peak resident set size as the kernel
// reports it (VmHWM), in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}

// cpuSteal reads the aggregate cpu line of /proc/stat and returns the
// steal time and the total, in clock ticks. ok is false where the file
// is missing.
func cpuSteal() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i == 7 { // user nice system idle iowait irq softirq steal ...
			steal = v
		}
		if i < 8 { // guest time is already counted in user and nice
			total += v
		}
	}
	return steal, total, true
}

// gcMeter measures the share of process CPU time spent in the garbage
// collector, and the bytes allocated, over an interval.
type gcMeter struct {
	samples []rtmetrics.Sample
	alloc   uint64
}

func startGCMeter() *gcMeter {
	m := &gcMeter{samples: []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}}
	rtmetrics.Read(m.samples)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.alloc = ms.TotalAlloc
	return m
}

// stop returns the GC share of CPU time and the bytes allocated since
// start.
func (m *gcMeter) stop() (gcShare float64, allocBytes uint64) {
	gc0, total0 := m.samples[0].Value.Float64(), m.samples[1].Value.Float64()
	rtmetrics.Read(m.samples)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	total := m.samples[1].Value.Float64() - total0
	if total > 0 {
		gcShare = (m.samples[0].Value.Float64() - gc0) / total
	}
	return gcShare, ms.TotalAlloc - m.alloc
}

// env is the environment stamped on every result.
type env struct {
	Go           string `json:"go"`
	GOOS         string `json:"goos"`
	GOARCH       string `json:"goarch"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NProc        int    `json:"nproc"`
	CPU          string `json:"cpu"`
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
	Seed         int64  `json:"seed"`
}

// envLine renders the environment as one "env {...}" line.
func envLine(seed int64) string {
	e := env{
		Go:           runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NProc:        runtime.NumCPU(),
		CPU:          cpuModel(),
		Commit:       commit(),
		SourceSHA256: sourceDigest("."),
		Seed:         seed,
	}
	b, _ := json.Marshal(e) // strings and ints always marshal
	return "env " + string(b)
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit returns the VCS revision the binary was built from, suffixed
// "+dirty" for a modified tree, or "unknown" outside a repository.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

// sourceDigest hashes the path and content of every .go and go.mod file
// under root, so results from a tree without VCS metadata still name the
// code they measured. Hidden directories are skipped.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
