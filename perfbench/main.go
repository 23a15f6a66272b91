// Command perfbench is the repository's pipeline benchmark. One run drives
// a whole workload against the live system through public calls: an
// ensemble of heat-equation solver clients streams into data-parallel
// training, the trained surrogate is published and served, and the serving
// tier answers three traffic phases. It checks the outputs, and prints its
// metrics with units, the last line being one JSON object.
//
//	perfbench --workload ensemble-inproc --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics, measured with tracing off.
// --trace 1 runs the workload twice with the same inputs, untraced and then
// traced, and prints the per-layer metrics from the traced run plus the
// tracing overhead; the spans are written under .bench_build/trace/.
//
//	perfbench spread < results.jsonl
//
// reads result lines of several runs and prints each metric's median and
// interquartile spread as a share of the median.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// workload is one benchmark input: an ensemble→train stage and the
// serve-open stage on the surrogate it trains.
type workload struct {
	ens   ensembleConfig
	serve serveConfig
}

// serveOpen is melissa-serve's default configuration and the three
// traffic phases. The busy rate is given in answer bytes: a model with a
// wider output field is offered proportionally fewer queries per second.
func serveOpen(fieldDim int) serveConfig {
	return serveConfig{
		replicas: 2, maxBatch: 32, cache: 4096, batchWait: 500 * time.Microsecond,
		loneQPS: 200, busyQPS: 4000 * 1024 / float64(fieldDim), hotSet: 256, hotEvery: 5, reloadGap: time.Second,
		conns: 2, satDepth: 32,
		loneShare: 0.55, busyShare: 0.3, satShare: 0.15,
		deadline:   time.Second,
		maxLateP50: time.Millisecond,
	}
}

// The workloads; BENCHMARK.json records why each exists.
var workloads = map[string]workload{
	// Trainer-bound: GEMM, Adam and in-process sync do most of the work.
	"ensemble-inproc": {
		ens: ensembleConfig{
			grid: 32, steps: 100, dt: 0.01, hidden: []int{256, 256},
			sims: 128, valSims: 10, testSims: 50, clients: 2, batch: 10,
			capacity: 1600, threshold: 200, validateEvery: 100,
			rmseLimitK: 30, mseLimit: 3e-3, timeout: 40 * time.Second,
		},
		serve: serveOpen(32 * 32),
	},
	// The solver, the TCP all-reduce and checkpoint stalls do the work;
	// GEMM does little. On 2 vCPUs producer and trainer are close to
	// balanced, so the trainer repeats few samples.
	"ensemble-tcp": {
		ens: ensembleConfig{
			tcp: true, grid: 64, steps: 100, dt: 0.01, hidden: []int{64, 64},
			sims: 48, valSims: 10, testSims: 30, clients: 2, batch: 10,
			capacity: 600, threshold: 100, validateEvery: 100, checkpointEvery: 100,
			rmseLimitK: 60, mseLimit: 1e-2, timeout: 40 * time.Second,
		},
		serve: serveOpen(64 * 64),
	},
}

// The end-to-end metrics with their units, in the order they are printed.
var e2eUnits = []struct{ name, unit string }{
	{"setup_s", "s"}, {"train_samples_per_s", "1/s"}, {"generation_s", "s"}, {"makespan_s", "s"},
	{"lone_p50_us", "us"}, {"busy_p50_us", "us"}, {"saturate_qps", "1/s"}, {"peak_heap_mb", "MB"},
}

// unboundedE2E are end-to-end figures whose run-to-run spread is wider
// than any bound the benchmark may set. Every run prints them; a traced
// run reports them with the per-layer metrics, from its untraced pass.
var unboundedE2E = []struct{ name, unit string }{
	{"val_mse", "mse"}, {"lone_p99_us", "us"}, {"busy_p99_us", "us"},
}

var layerUnits = map[string]string{
	"solver.step_p50_us": "us", "solver.step_p99_us": "us", "solver.busy_s": "s",
	"client.send_p50_us": "us", "client.send_p99_us": "us", "client.send_busy_s": "s",
	"launcher.client_restarts": "count", "buffer.unique_samples": "count", "buffer.repeat_ratio": "ratio",
	"core.batches": "count", "core.step_p50_us": "us", "core.step_p99_us": "us", "core.step_max_ms": "ms",
	"core.first_batch_s": "s", "core.drain_s": "s",
	"server.checkpoint_stall_ms": "ms", "server.checkpoint_mb": "MB", "ddp.wire_mb_per_step": "MB",
	"core.build_batch_us": "us", "nn.forward_us": "us", "nn.backward_us": "us", "ddp.allreduce_us": "us",
	"opt.adam_us": "us", "probe.sum_us": "us",
	"replica.forward1_us": "us", "replica.forward32_us": "us",
	"serve.lone.rows_per_batch": "rows", "serve.busy.rows_per_batch": "rows", "serve.saturate.rows_per_batch": "rows",
	"serve.hit_ratio": "ratio", "serve.reload_ms": "ms", "serve.shed": "count", "serve.expired": "count",
	"serve.slow_clients": "count", "serve.hit_p50_us": "us", "melissa.predict_us": "us",
	"gen.late_p50_us": "us", "gen.late_p99_us": "us",
	"trace.overhead.train_samples_per_s_pct": "%", "trace.overhead.makespan_s_pct": "%",
	"trace.overhead.busy_p50_us_pct": "%", "trace.overhead.saturate_qps_pct": "%",
	"val_mse": "mse", "lone_p99_us": "us", "busy_p99_us": "us",
}

// report collects one pass's metrics, counts and checks. A metric may be
// measured several times in a pass; its value is the median.
type report struct {
	mu        sync.Mutex
	samples   map[string][]float64
	attempted int
	failed    int
	checks    []checkResult
	infos     []string
}

type checkResult struct {
	name, detail string
	ok           bool
}

func newReport() *report {
	return &report{samples: map[string][]float64{}}
}

// add records one measurement of a metric.
func (r *report) add(name string, v float64) {
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], v)
	r.mu.Unlock()
}

// set replaces a metric's measurements with one value.
func (r *report) set(name string, v float64) {
	r.mu.Lock()
	r.samples[name] = []float64{v}
	r.mu.Unlock()
}

// value returns the median of a metric's measurements.
func (r *report) value(name string) (float64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.samples[name]
	if !ok {
		return 0, false
	}
	return median(s), true
}

func (r *report) attempt(n, failed int) {
	r.mu.Lock()
	r.attempted += n
	r.failed += failed
	r.mu.Unlock()
}

func (r *report) check(name string, ok bool, detail string) {
	r.mu.Lock()
	r.checks = append(r.checks, checkResult{name: name, ok: ok, detail: detail})
	r.mu.Unlock()
}

func (r *report) info(format string, args ...any) {
	r.mu.Lock()
	r.infos = append(r.infos, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

func (r *report) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return len(r.checks) > 0
}

// heapPeak samples the heap's object bytes until stopped and keeps the
// maximum. peak_heap_mb is the median over the ensemble repetitions of the
// peak during each; the last repetition's window runs on through the serve
// stage.
type heapPeak struct {
	stop chan struct{}
	done chan float64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		peak := uint64(0)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				h.done <- float64(peak) / 1e6
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapPeak) end() float64 { close(h.stop); return <-h.done }

// runPass runs the workload once: the ensemble stage (after a warm-up
// repetition in the process's first pass), the serve stage, and (traced)
// the probes.
func runPass(w workload, seed uint64, seconds float64, first bool, tr *Tracer, scratch string) (*report, error) {
	rep := newReport()
	ens, err := runEnsemble(w.ens, seed, first, tr, rep, scratch)
	if err != nil {
		return nil, err
	}
	defer ens.closeFn()
	// The ensemble stage's garbage is collected before the serve phases
	// start, so its collection does not land in their latencies.
	runtime.GC()
	err = runServe(w.serve, ens, seed, seconds, tr, rep, scratch)
	rep.add("peak_heap_mb", ens.heap.end())
	if err != nil {
		return nil, err
	}
	ensSetup, _ := rep.value("setup.ensemble_s")
	serveSetup, _ := rep.value("setup.serve_s")
	rep.add("setup_s", ensSetup+serveSetup)
	rep.info("failed_ratio %.6g (%d failed of %d attempted sims and predict requests)",
		failedRatio(rep.failed, rep.attempted), rep.failed, rep.attempted)
	if tr != nil {
		probe, err := ens.probe(tr)
		if err != nil {
			return nil, err
		}
		for k, v := range probe {
			rep.add(k, v)
		}
		one, full, err := replicaProbe(ens.surrogate, w.serve.maxBatch, seed, tr)
		if err != nil {
			return nil, err
		}
		rep.add("replica.forward1_us", one)
		rep.add("replica.forward32_us", full)
		spanLayers(tr.Spans(), rep)
	}
	return rep, nil
}

// spanLayers derives the solver and client metrics from their spans.
func spanLayers(spans []Span, rep *report) {
	by := map[string]durations{}
	for _, s := range spans {
		if s.Name == "solver.step" || s.Name == "client.send" {
			by[s.Name] = append(by[s.Name], s.End-s.Start)
		}
	}
	for _, name := range []string{"solver.step", "client.send"} {
		sorted := by[name].sortedMicros()
		rep.add(name+"_p50_us", percentile(sorted, 0.5))
		rep.add(name+"_p99_us", percentile(sorted, 0.99))
	}
	// Busy times are per repetition of the ensemble stage.
	rep.add("solver.busy_s", by["solver.step"].sum().Seconds()/ensembleReps)
	rep.add("client.send_busy_s", by["client.send"].sum().Seconds()/ensembleReps)
}

// stealTicks reads the host's cumulative steal and total CPU ticks, to
// report how much of the run the hypervisor gave to other guests.
func stealTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64) // a malformed field only blurs a diagnostic
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// hostLine describes where the run happened.
func hostLine(seed uint64) string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("host: cpu %q, nproc %d, GOMAXPROCS %d, %s, commit %s, seed %d",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, seed)
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func printResult(res resultLine) {
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func printChecks(rep *report) {
	for _, s := range rep.infos {
		fmt.Println("  " + s)
	}
	for _, c := range rep.checks {
		mark := "PASS"
		if !c.ok {
			mark = "FAIL"
		}
		fmt.Printf("  check %s: %s (%s)\n", mark, c.name, c.detail)
	}
}

// runLimit bounds a whole run; past it the run is reported as failed and
// the process exits without waiting on anything still running.
const runLimit = 170 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "spread" {
		if err := spreadMain(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench spread:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "workload to run: ensemble-inproc or ensemble-tcp")
	seed := flag.Uint64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 12, "length of the time-boxed serve phases, in seconds")
	trace := flag.Int("trace", 0, "1 runs a second, traced pass and prints the per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad flags\n", *name)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	fmt.Println(hostLine(*seed))
	fmt.Printf("workload %s, seed %d, seconds %d, trace %d\n", *name, *seed, *seconds, *trace)

	time.AfterFunc(runLimit, func() {
		fmt.Printf("run exceeded %v; reporting it as failed\n", runLimit)
		printResult(resultLine{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metricOut{}})
		os.Exit(1)
	})
	// Checkpoints and published surrogates go to a directory of the run's
	// own, removed before the process exits.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fail(err)
	}
	scratch, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fail(err)
	}

	steal0, total0 := stealTicks()
	base, err := runPass(w, *seed, float64(*seconds), true, nil, scratch)
	if err != nil {
		os.RemoveAll(scratch)
		fail(err)
	}
	fmt.Println("end-to-end (untraced):")
	for _, m := range append(e2eUnits, unboundedE2E...) {
		v, _ := base.value(m.name)
		fmt.Printf("  %-22s %14.6g %s\n", m.name, v, m.unit)
	}
	printChecks(base)
	res := resultLine{Correct: base.correct(), Attempted: base.attempted, Failed: base.failed, Metrics: map[string]metricOut{}}
	if *trace == 0 {
		for _, m := range e2eUnits {
			v, ok := base.value(m.name)
			if !ok {
				res.Correct = false
			}
			res.Metrics[m.name] = metricOut{Value: v, Unit: m.unit}
		}
	} else {
		tr := newTracer()
		traced, err := runPass(w, *seed, float64(*seconds), false, tr, scratch)
		if err != nil {
			os.RemoveAll(scratch)
			fail(err)
		}
		for _, name := range []string{"train_samples_per_s", "makespan_s", "busy_p50_us", "saturate_qps"} {
			b, _ := base.value(name)
			t, _ := traced.value(name)
			traced.add("trace.overhead."+name+"_pct", 100*(t-b)/b)
		}
		for _, m := range unboundedE2E {
			v, _ := base.value(m.name)
			traced.set(m.name, v)
		}
		fmt.Println("traced pass:")
		printChecks(traced)
		spans := tr.Spans()
		fmt.Println("span self time (name, count, total s, self s):")
		for _, st := range selfTimes(spans) {
			fmt.Printf("  %-24s %8d %10.4f %10.4f\n", st.Name, st.Count, st.Total.Seconds(), st.Self.Seconds())
		}
		dir := filepath.Join(".bench_build", "trace")
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		if err := os.MkdirAll(dir, 0o755); err == nil {
			err = writeSpans(path, spans)
		}
		if err != nil {
			fmt.Println("  spans not written:", err)
		} else {
			fmt.Printf("  %d spans written to %s\n", len(spans), path)
		}
		names := make([]string, 0, len(layerUnits))
		for n := range layerUnits {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Println("per-layer (traced):")
		for _, n := range names {
			v, ok := traced.value(n)
			if !ok {
				traced.check("per-layer metric measured: "+n, false, "missing")
			}
			fmt.Printf("  %-40s %14.6g %s\n", n, v, layerUnits[n])
			res.Metrics[n] = metricOut{Value: v, Unit: layerUnits[n]}
		}
		res.Correct = res.Correct && traced.correct()
		res.Attempted += traced.attempted
		res.Failed += traced.failed
	}
	if steal1, total1 := stealTicks(); total1 > total0 {
		fmt.Printf("host steal during the run: %.1f%% of CPU time\n", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	printResult(res)
	os.RemoveAll(scratch)
	if !res.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Println("perfbench:", err)
	printResult(resultLine{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metricOut{}})
	os.Exit(1)
}

// spreadMain reads result lines (any other lines are skipped) and prints,
// per metric, the run count, median and interquartile spread as a share of
// the median — the figure the benchmark's bounds are checked against.
func spreadMain(in io.Reader, out io.Writer) error {
	b, err := io.ReadAll(in)
	if err != nil {
		return err
	}
	vals := map[string][]float64{}
	runs := 0
	for _, line := range strings.Split(string(b), "\n") {
		var r resultLine
		if !strings.HasPrefix(line, "{") || json.Unmarshal([]byte(line), &r) != nil || r.Metrics == nil {
			continue
		}
		runs++
		for k, m := range r.Metrics {
			vals[k] = append(vals[k], m.Value)
		}
	}
	if runs == 0 {
		return fmt.Errorf("no result lines")
	}
	names := make([]string, 0, len(vals))
	for k := range vals {
		names = append(names, k)
	}
	slices.Sort(names)
	fmt.Fprintf(out, "%d runs\n", runs)
	for _, k := range names {
		spread, ok := relativeSpread(vals[k])
		s := "n/a"
		if ok {
			s = fmt.Sprintf("%.4f", spread)
		}
		fmt.Fprintf(out, "%-40s n=%-3d median %-14.6g spread %s\n", k, len(vals[k]), median(vals[k]), s)
	}
	return nil
}
