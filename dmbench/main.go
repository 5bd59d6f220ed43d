// Command dmbench is the DMopt benchmark.  It drives the pipeline from
// outside, through the public entry points of each module, on four
// workloads, checks the outputs, and prints one JSON result line:
//
//	dmbench --workload tables-iv-x --seed 0 --seconds 20 --trace 0
//
// With --trace 0 the run is untraced and the result carries the
// end-to-end metrics; with --trace 1 the benchmark also records its own
// spans around every public call plus an obs.Recorder on the context,
// and the result carries the per-layer metrics.  See README.md.
package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
)

// Benchmark-wide parameters (recorded in the provenance line).
const (
	scale       = 0.15 // batch workloads' design scale
	topK        = 2000 // harness top-path count; Tables IV/X do not consume it
	setupRounds = 5    // set-up repetitions per run; setup_s is their median
	spanDir     = ".bench_build/dmbench-spans"
)

// workload is one input set.  setup builds the inputs (it runs
// setupRounds times; the last build is kept); pass runs the timed work
// once, recording every operation and check through b.
type workload interface {
	setup(ctx context.Context, b *bench) error
	pass(ctx context.Context, b *bench) error
	workers() int
}

// bench accumulates one run's operations, checks and quality figures.
type bench struct {
	seed       int64   // drives the job order and the serve-mix job sequence
	designSeed int64   // re-seeds the generator presets; 0 = paper presets
	tr         *tracer // nil when untraced

	mu        sync.Mutex
	lat       []float64 // per-operation latency in ms, timed phase only
	attempted int
	failed    int
	problems  []string
	quality   map[string][]float64
	signed    map[string]uint64  // per-job hash of its signoff numbers
	extra     map[string]float64 // workload-specific per-layer figures
}

// op records one finished operation: its latency and whether it failed
// (an error, or an output that failed its check).
func (b *bench) op(d time.Duration, err error) {
	b.mu.Lock()
	b.lat = append(b.lat, ms(d))
	b.attempted++
	b.mu.Unlock()
	b.fail(err)
}

// check turns a failed condition into an error describing it.
func check(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf(format, args...)
}

// setExtra records a workload-specific per-layer figure.
func (b *bench) setExtra(name string, v float64) {
	b.mu.Lock()
	b.extra[name] = v
	b.mu.Unlock()
}

// maxExtra keeps the largest value seen of a per-layer figure.
func (b *bench) maxExtra(name string, v float64) {
	b.mu.Lock()
	b.extra[name] = max(b.extra[name], v)
	b.mu.Unlock()
}

// note adds one sample of a quality figure (a mean is reported).
func (b *bench) note(name string, v float64) {
	b.mu.Lock()
	b.quality[name] = append(b.quality[name], v)
	b.mu.Unlock()
}

// sign records an operation's signoff numbers under its job key; the
// pass digest hashes them in key order, so it does not depend on the
// order the jobs ran in.  Repeats of one job must sign identically.
func (b *bench) sign(key string, vs ...float64) {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	b.mu.Lock()
	old, seen := b.signed[key]
	b.signed[key] = h.Sum64()
	b.mu.Unlock()
	b.fail(check(!seen || old == h.Sum64(), "%s: two runs of the same job gave different results", key))
}

// digest is the FNV-64a hash of every signed number in key order.
func (b *bench) digest() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	keys := make([]string, 0, len(b.signed))
	for k := range b.signed {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	var buf [8]byte
	for _, k := range keys {
		h.Write([]byte(k))
		binary.LittleEndian.PutUint64(buf[:], b.signed[k])
		h.Write(buf[:])
	}
	return h.Sum64()
}

// fail counts a failed check on an operation already recorded; nil is
// a passed check.
func (b *bench) fail(err error) {
	if err == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failed++
	if len(b.problems) < 20 {
		b.problems = append(b.problems, err.Error())
	}
}

// compileUse records how many compiled formulations a pass's solves
// share: the hit ratio a build-once compile cache would see.
func (b *bench) compileUse(compiles, solves int) {
	b.setExtra("compile.misses", float64(compiles))
	b.setExtra("compile.hits", float64(solves-compiles))
}

// call times fn as one span named name.
func (b *bench) call(ctx context.Context, name string, fn func(ctx context.Context) error) error {
	ctx, h := b.tr.begin(ctx, name)
	err := fn(ctx)
	h.end()
	return err
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: tables-iv-x, dosepl, wafer or serve-mix")
	seed := flag.Int64("seed", 0, "workload seed: job order, and the serve-mix job sequence")
	designSeed := flag.Int64("design-seed", 0, "re-seeds the generator presets; 0 keeps the paper presets")
	seconds := flag.Float64("seconds", 20, "length of the timed phase in seconds")
	traceFlag := flag.Int("trace", 0, "1 records spans and counters and reports per-layer metrics")
	flag.Parse()
	var w workload
	switch *name {
	case "tables-iv-x":
		w = &tablesIVX{}
	case "dosepl":
		w = &dosePl{}
	case "wafer":
		w = &wafer{}
	case "serve-mix":
		w = &serveMix{}
	default:
		fmt.Fprintf(os.Stderr, "dmbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	b := &bench{seed: *seed, designSeed: *designSeed, quality: map[string][]float64{}, extra: map[string]float64{}}
	if *traceFlag == 1 {
		b.tr = newTracer()
	}
	res, prov, err := run(w, b, *seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmbench:", err)
		os.Exit(1)
	}
	prov["workload"] = *name
	if b.tr != nil {
		file := fmt.Sprintf("%s-seed%d.json", *name, *seed)
		if err := b.tr.write(spanDir, file); err != nil {
			fmt.Fprintln(os.Stderr, "dmbench: writing spans:", err)
			os.Exit(1)
		}
		prov["spans_file"] = spanDir + "/" + file
	}
	for _, line := range []any{prov, res} {
		out, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dmbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(out))
	}
}

// phase is one measured stretch of passes.
type phase struct {
	walls   []float64 // per-pass wall in s
	cpus    []float64 // per-pass process CPU time in s
	digests []uint64
	total   time.Duration
	cpu     time.Duration // process CPU time over the phase
	ops     int
	mem     runtime.MemStats // allocation and GC deltas over the phase
	snaps   []obs.Snapshot   // per-pass program counters (traced passes)
	marks   [2]int           // span range of the phase
}

// measure runs passes until the next one would end further past budget
// seconds than stopping now falls short of it.  With rec, every pass
// carries a fresh obs.Recorder on its context.
func measure(ctx context.Context, w workload, b *bench, budget float64, rec bool) (phase, error) {
	var ph phase
	ph.marks[0] = b.tr.mark()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	opsBefore := b.attempted
	for {
		pctx := ctx
		var r *obs.Recorder
		if rec {
			r = obs.New()
			pctx = obs.With(ctx, r)
		}
		b.signed = map[string]uint64{}
		c0 := cpuTime()
		t0 := time.Now()
		if err := b.call(pctx, "pass", func(ctx context.Context) error { return w.pass(ctx, b) }); err != nil {
			return ph, err
		}
		ph.walls = append(ph.walls, time.Since(t0).Seconds())
		ph.cpus = append(ph.cpus, (cpuTime() - c0).Seconds())
		ph.digests = append(ph.digests, b.digest())
		if rec {
			ph.snaps = append(ph.snaps, r.Snapshot())
		}
		el := time.Since(start).Seconds()
		per := el / float64(len(ph.walls))
		if el+per > budget+per/2 {
			break
		}
	}
	ph.total = time.Since(start)
	ph.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	ph.mem = runtime.MemStats{
		TotalAlloc:   m1.TotalAlloc - m0.TotalAlloc,
		NumGC:        m1.NumGC - m0.NumGC,
		PauseTotalNs: m1.PauseTotalNs - m0.PauseTotalNs,
	}
	ph.ops = b.attempted - opsBefore
	ph.marks[1] = b.tr.mark()
	return ph, nil
}

// run sets up the workload setupRounds times, measures it and returns
// the result line and the provenance line.
func run(w workload, b *bench, seconds float64) (*result, map[string]any, error) {
	ctx := context.Background()
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		t0 := time.Now()
		if err := b.call(ctx, "setup", func(ctx context.Context) error { return w.setup(ctx, b) }); err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	setupMark := b.tr.mark()

	var plain, traced phase
	var err error
	if b.tr == nil {
		plain, err = measure(ctx, w, b, seconds, false)
	} else {
		// The traced run measures an untraced stretch first, so the
		// tracing overhead is a same-run comparison.
		if plain, err = measure(ctx, w, b, seconds/2, false); err == nil {
			traced, err = measure(ctx, w, b, seconds/2, true)
		}
	}
	if err != nil {
		return nil, nil, err
	}

	digests := append(plain.digests, traced.digests...)
	for i, d := range digests {
		b.fail(check(d == digests[0], "pass %d digest %016x differs from pass 0 %016x", i, d, digests[0]))
	}
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "dmbench: check failed:", p)
	}
	prov := map[string]any{
		"git_rev":      obs.GitRev(),
		"go_version":   runtime.Version(),
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"cpu_model":    cpuModel(),
		"seed":         b.seed,
		"design_seed":  b.designSeed,
		"scale":        scale,
		"top_k":        topK,
		"workers":      w.workers(),
		"digest_fnv64": fmt.Sprintf("%016x", digests[0]),
		"setup_s":      setups,
		"pass_wall_s":  append(plain.walls, traced.walls...),
		"pass_cpu_s":   append(plain.cpus, traced.cpus...),
	}
	res := &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed}
	if b.tr == nil {
		res.Metrics = endToEnd(b, setups, plain)
	} else {
		_, inServer := w.(*serveMix)
		res.Metrics = layerMetrics(b, setupMark, plain, traced, inServer)
		var perPass []map[string]int64
		for _, s := range traced.snaps {
			perPass = append(perPass, s.Counters)
		}
		prov["counters_per_pass"] = perPass
	}
	return res, prov, nil
}

// endToEnd assembles the untraced metrics.
func endToEnd(b *bench, setups []float64, ph phase) map[string]metric {
	lat := append([]float64(nil), b.lat...)
	sort.Float64s(lat)
	m := map[string]metric{
		"setup_s":         {median(setups), "s"},
		"wall_s":          {median(ph.walls), "s"},
		"jobs_per_s":      {float64(ph.ops) / ph.total.Seconds(), "1/s"},
		"job_p50_ms":      {quantile(lat, 0.50), "ms"},
		"job_p99_ms":      {quantile(lat, 0.99), "ms"},
		"ok_frac":         {1 - float64(b.failed)/float64(b.attempted), "fraction"},
		"peak_rss_mb":     {peakRSSMB(), "MB"},
		"leak_saving_pct": {mean(b.quality["leak_saving_pct"]), "%"},
		"mct_gain_pct":    {mean(b.quality["mct_gain_pct"]), "%"},
	}
	return m
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile interpolates linearly between the order statistics of a
// sorted sample.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	i := int(pos)
	if i >= n-1 {
		return sorted[n-1]
	}
	f := pos - float64(i)
	return sorted[i]*(1-f) + sorted[i+1]*f
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
