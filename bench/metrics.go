package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	faultprop "repro"
)

// metricSpec names one metric as BENCHMARK.json declares it. Bound is the
// share of the parent's median by which an end-to-end metric may worsen
// (per-layer metrics have none).
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd lists what a user of the engine sees. Every workload reports
// every one of them (README.md says what each means on each workload).
//
// The bounds are the contract's widest. The issue asked for 3 to 15 %, but
// single runs do not repeat that well: the host holds the sandbox's two
// CPUs back by up to a half for seconds to minutes at a time, so even as
// quiet-machine estimates (quietSum) the CPU-bound metrics of ten runs
// have their quartiles 5 to 15 % apart (README.md, "How the bounds were
// set"), and the driver requires them within the bound.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"runs_per_s", "experiments/s", "higher", 0.25},
	{"resume_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

// perLayer lists the ladder of single-layer metrics the traced run
// reports, in the order README.md's interaction table discusses them.
func perLayer() []metricSpec {
	var out []metricSpec
	add := func(name, unit, better string) { out = append(out, metricSpec{Name: name, Unit: unit, Better: better}) }
	perApp := func(prefix, unit, better string) {
		for _, a := range faultprop.Apps() {
			add(prefix+"."+a.Name(), unit, better)
		}
	}
	perApp("apps.build_ms", "ms", "lower")
	perApp("transform.instrument_ms", "ms", "lower")
	perApp("transform.static_sites", "count", "lower")
	for _, k := range []string{"int_alu", "float_alu", "load_store", "call_ret", "clean", "dual"} {
		add("vm.ns_per_cycle."+k, "ns/cycle", "lower")
	}
	add("vm.mem_snapshot_us", "us", "lower")
	for _, pct := range dirtyPcts {
		add(fmt.Sprintf("vm.mem_restore_us.dirty%dpct", pct), "us", "lower")
	}
	for _, pct := range dirtyPcts {
		add(fmt.Sprintf("vm.mem_restore_bytes.dirty%dpct", pct), "bytes", "lower")
	}
	add("fpm.observe_ns", "ns", "lower")
	add("fpm.record_cleanse_ns", "ns", "lower")
	add("fpm.append_range_ns_per_word", "ns/word", "lower")
	add("fpm.table_restore_us", "us", "lower")
	add("inject.plan_ns", "ns", "lower")
	add("mpi.pingpong_ns", "ns", "lower")
	add("mpi.allreduce_us.r8", "us", "lower")
	add("mpi.job_recycle_us", "us", "lower")
	add("classify.classify_ns", "ns", "lower")
	add("model.fitrun_ns_per_100pts", "ns", "lower")
	perApp("core.golden_run_ms", "ms", "lower")
	perApp("core.sim_cycles_per_s", "cycles/s", "higher")
	add("core.profile_ms", "ms", "lower")
	add("core.capture_ms_per_snapshot", "ms", "lower")
	add("core.run_floor_us.r4", "us", "lower")
	add("core.run_floor_us.r8", "us", "lower")
	add("core.resumed_run_us", "us", "lower")
	add("core.restore_bytes_per_run", "bytes", "lower")
	add("core.restore_share", "ratio", "lower")
	add("core.deadlock_run_ms", "ms", "lower")
	for _, ph := range []string{"inject", "restore", "execute", "classify"} {
		add("harness.phase_share."+ph, "ratio", "lower")
	}
	add("harness.exp_total_p50_us", "us", "lower")
	add("harness.exp_total_p95_us", "us", "lower")
	add("harness.fork_rate", "ratio", "higher")
	add("harness.restore_frac_mean", "ratio", "lower")
	for _, a := range faultprop.Apps() {
		add("harness.runs_per_s."+a.Name()+".r1", "experiments/s", "higher")
		add("harness.runs_per_s."+a.Name()+".r4", "experiments/s", "higher")
	}
	add("harness.scaling_efficiency", "ratio", "higher")
	add("harness.journal_append_us", "us", "lower")
	add("harness.resume_records_per_s", "records/s", "higher")
	add("harness.merge_partials_ms", "ms", "lower")
	add("harness.adaptive_runs_per_s", "experiments/s", "higher")
	add("harness.alloc_kb_per_exp", "KiB", "lower")
	add("harness.allocs_per_exp", "count", "lower")
	add("archive.put_ms", "ms", "lower")
	add("archive.get_ms", "ms", "lower")
	add("service.submit_ms", "ms", "lower")
	add("service.queue_wait_ms", "ms", "lower")
	add("service.result_fetch_ms", "ms", "lower")
	add("service.overhead_ms", "ms", "lower")
	add("service.shard_overhead_ms", "ms", "lower")
	add("service.metrics_scrape_ms", "ms", "lower")
	add("service.concurrent_jobs_per_s", "jobs/s", "higher")
	add("service.job_miss_p50_ms", "ms", "lower")
	add("service.job_hit_p50_ms", "ms", "lower")
	add("service.job_sharded_p50_ms", "ms", "lower")
	add("trace_overhead_pct", "%", "lower")
	add("stalled_experiments", "count", "lower")
	return out
}

// dirtyPcts are the dirty-block shares the memory-restore rungs sweep.
var dirtyPcts = []int{1, 10, 50, 100}

// measurement is one reported metric: its value (the median of the
// samples unless addAs says otherwise) and how the samples spread.
type measurement struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// report collects a run's measurements and its operation counts.
type report struct {
	workload string
	out      io.Writer
	metrics  []measurement
	byName   map[string]int

	attempted int
	failed    int
	// incorrect is set when an output differed from its oracle.
	incorrect bool
	notes     []string
}

func newReport(workload string, out io.Writer) *report {
	return &report{workload: workload, out: out, byName: make(map[string]int)}
}

// add records a metric as the median of its samples.
func (r *report) add(name, unit string, samples ...float64) {
	r.addAs(name, unit, median(samples), samples...)
}

// addAs records a metric whose value is another statistic of the samples
// than their median, and prints its line:
// workload metric value unit n=<samples> [min..max].
func (r *report) addAs(name, unit string, value float64, samples ...float64) {
	lo, hi := minMax(samples)
	m := measurement{Name: name, Unit: unit, Value: value, N: len(samples), Min: lo, Max: hi}
	if i, ok := r.byName[name]; ok {
		r.metrics[i] = m
	} else {
		r.byName[name] = len(r.metrics)
		r.metrics = append(r.metrics, m)
	}
	fmt.Fprintf(r.out, "%s %s %.6g %s n=%d [%.6g..%.6g]\n", r.workload, name, m.Value, unit, m.N, lo, hi)
}

// note prints an informational line that is not a metric.
func (r *report) note(format string, args ...any) {
	s := fmt.Sprintf(format, args...)
	r.notes = append(r.notes, s)
	fmt.Fprintf(r.out, "%s %s\n", r.workload, s)
}

// attempt counts n operations, of which bad failed.
func (r *report) attempt(n, bad int) {
	r.attempted += n
	r.failed += bad
}

// mismatch records an output that differs from its oracle: it fails the n
// operations the compared output covers and marks the run incorrect.
func (r *report) mismatch(n int, format string, args ...any) {
	r.failed += n
	r.incorrect = true
	r.note("ORACLE MISMATCH: "+format, args...)
}

// final renders the driver's result line: exactly the metrics in specs,
// each present, finite, and as measured.
func (r *report) final(specs []metricSpec) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(specs))
	for _, s := range specs {
		i, ok := r.byName[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.Name)
		}
		m := r.metrics[i]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", s.Name, m.Value)
		}
		if m.Unit != s.Unit {
			return nil, fmt.Errorf("metric %s measured in %s, declared in %s", s.Name, m.Unit, s.Unit)
		}
		metrics[s.Name] = value{Value: m.Value, Unit: m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{!r.incorrect, r.attempted, r.failed, metrics})
}
