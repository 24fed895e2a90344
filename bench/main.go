// Command bench is the repository's one benchmark: four named workloads,
// the end-to-end metrics a user of the campaign engine sees, a ladder of
// per-layer metrics timed from outside through each module's public
// functions, and a traced run. BENCHMARK.json declares what it prints;
// README.md says what every metric means and why each workload exists.
//
//	go run ./bench --workload lulesh-fork --seed 2015 --seconds 16 --trace 0
//
// Without --workload it runs every workload, each in a fresh process.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// bench is one run of one workload.
type bench struct {
	workload string
	// seed is --seed; campaignSeed is the verified campaign seed it
	// selects (see seeds.go).
	seed         uint64
	campaignSeed uint64
	seconds      float64
	trace        bool
	sc           scale
	// outDir receives the JSON records and the trace; tmp, inside it,
	// the journals and daemon stores of this run.
	outDir string
	tmp    string
	report *report
	tracer *tracer
	// coldSetup measures one set-up at workload seed `seed` in a process
	// that has run nothing yet. main spawns the benchmark binary again;
	// tests call setupOnce.
	coldSetup func(workload string, seed uint64, dir string) (float64, error)
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 16

func main() {
	workload := flag.String("workload", "", "one of "+strings.Join(workloads, ", ")+" (default: each, in a fresh process)")
	seed := flag.Uint64("seed", defaultSeed, "workload seed; selects one of the verified stall-free campaign seeds")
	seconds := flag.Float64("seconds", defaultSeconds, "measuring time; sets the number of repetitions")
	trace := flag.Int("trace", 0, "1: traced pass (per-layer metrics, bench/out/trace.json); 0: end-to-end pass")
	phase := flag.String("phase", "", "\"survey\": check campaign seed --seed for stalls on every window; \"setup\" (internal): one cold set-up")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace != 0, *phase); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds float64, trace bool, phase string) error {
	outDir := filepath.Join("bench", "out")
	if _, err := os.Stat(filepath.Join("bench", "main.go")); err != nil {
		return errors.New("run from the repository root: go run ./bench")
	}
	if phase == "survey" {
		return survey(seed, fullScale, os.Stdout)
	}
	if workload == "" {
		return runAll(seed, seconds, trace)
	}
	if !slices.Contains(workloads, workload) {
		return fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(workloads, ", "))
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	b := &bench{
		workload: workload, seed: seed, campaignSeed: campaignSeed(seed),
		seconds: seconds, trace: trace, sc: fullScale, outDir: outDir,
		coldSetup: func(workload string, seed uint64, dir string) (float64, error) {
			return spawnSetup(exe, workload, seed)
		},
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if phase == "setup" {
		dir, err := os.MkdirTemp(outDir, "setup-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		s, err := setupOnce(workload, b.campaignSeed, b.sc, dir)
		if err != nil {
			return err
		}
		fmt.Println(strconv.FormatFloat(s, 'g', -1, 64))
		return nil
	}
	line, err := b.run(os.Stdout)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if b.report.incorrect || b.report.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed (correct=%v)", workload, b.report.failed, b.report.attempted, !b.report.incorrect)
	}
	return nil
}

// run measures the workload, writes the records and returns the driver's
// result line.
func (b *bench) run(out io.Writer) ([]byte, error) {
	tmp, err := os.MkdirTemp(b.outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	b.tmp = tmp
	b.report = newReport(b.workload, out)
	env := environment()
	fmt.Fprintf(out, "# %s seed=%d campaign_seed=%d seconds=%g trace=%v\n", b.workload, b.seed, b.campaignSeed, b.seconds, b.trace)
	fmt.Fprintf(out, "# commit=%s %s GOMAXPROCS=%d nproc=%d load1=%s\n", env.Commit, env.Go, env.GOMAXPROCS, env.NProc, env.Load1)

	specs := endToEnd
	if b.trace {
		specs = perLayer()
		b.tracer = newTracer()
	}
	switch {
	case b.workload == wlService && b.trace:
		err = b.traceService()
	case b.workload == wlService:
		err = b.measureService()
	case b.trace:
		err = b.traceCampaigns()
	default:
		err = b.measureCampaigns()
	}
	if err == nil && b.trace {
		err = b.ladder()
	}
	if err != nil {
		return nil, err
	}
	if b.trace {
		spans := b.tracer.snapshot()
		if err := writeChrome(filepath.Join(b.outDir, "trace."+b.workload+".json"), spans); err != nil {
			return nil, err
		}
		printSelfTimes(out, spans)
	}
	line, err := b.report.final(specs)
	if err != nil {
		return nil, err
	}
	return line, b.writeRecord(env)
}

// measureSetup takes the cold set-up samples.
func (b *bench) measureSetup() error {
	var samples []float64
	for i := 0; i < b.sc.setupSamples[b.workload]; i++ {
		dir := filepath.Join(b.tmp, fmt.Sprintf("setup%d", i))
		s, err := b.coldSetup(b.workload, b.seed, dir)
		if err != nil {
			return fmt.Errorf("cold set-up: %w", err)
		}
		samples = append(samples, s)
	}
	b.report.add("setup_s", "s", samples...)
	return nil
}

// setupOnce is one set-up of the workload; it is cold when the process
// has run nothing else.
func setupOnce(workload string, campaignSeed uint64, sc scale, dir string) (float64, error) {
	if workload == wlService {
		return coldServiceSetup(campaignSeed, sc, dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	return coldCampaignSetup(campaignConfigs(workload, campaignSeed, sc), dir)
}

// spawnSetup runs the benchmark binary again for one cold set-up and
// waits for it.
func spawnSetup(exe, workload string, seed uint64) (float64, error) {
	cmd := exec.Command(exe, "--phase", "setup", "--workload", workload, "--seed", strconv.FormatUint(seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// peakRSS records the process's resident-set high-water mark.
func (b *bench) peakRSS() {
	kb, err := procStatusKB("VmHWM")
	if err != nil {
		b.report.note("peak_rss_mb unavailable: %v", err)
		return
	}
	b.report.add("peak_rss_mb", "MiB", kb/1024)
}

func procStatusKB(key string) (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == key+":" {
			return strconv.ParseFloat(fields[1], 64)
		}
	}
	return 0, fmt.Errorf("%s not in /proc/self/status", key)
}

// envInfo is the environment header of every record.
type envInfo struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Load1      string `json:"load1"`
	Time       string `json:"time"`
}

func environment() envInfo {
	env := envInfo{
		Commit: "unknown", Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), Load1: "unknown", Time: time.Now().UTC().Format(time.RFC3339),
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			env.Load1 = f[0]
		}
	}
	return env
}

// record is one line of the trajectory (BENCH.jsonl): the environment,
// the arguments, and every metric of the run under BENCHMARK.json's
// names.
type record struct {
	envInfo
	Workload  string        `json:"workload"`
	Seed      uint64        `json:"seed"`
	Seconds   float64       `json:"seconds"`
	Trace     int           `json:"trace"`
	Correct   bool          `json:"correct"`
	Attempted int           `json:"attempted"`
	Failed    int           `json:"failed"`
	Metrics   []measurement `json:"metrics"`
	Notes     []string      `json:"notes,omitempty"`
}

// writeRecord writes the run's record to <outDir>/<workload>.trace<n>.json.
func (b *bench) writeRecord(env envInfo) error {
	rec := record{
		envInfo: env, Workload: b.workload, Seed: b.seed, Seconds: b.seconds,
		Correct: !b.report.incorrect, Attempted: b.report.attempted, Failed: b.report.failed,
		Metrics: b.report.metrics, Notes: b.report.notes,
	}
	if b.trace {
		rec.Trace = 1
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s.trace%d.json", b.workload, rec.Trace)
	return os.WriteFile(filepath.Join(b.outDir, name), append(data, '\n'), 0o644)
}

// runAll runs every workload in a fresh process of this binary, so that
// each starts with cold caches and its own resident-set high-water mark.
func runAll(seed uint64, seconds float64, trace bool) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	t := "0"
	if trace {
		t = "1"
	}
	var failed error
	for _, w := range workloads {
		cmd := exec.Command(exe, "--workload", w, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", t)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = errors.Join(failed, fmt.Errorf("%s: %w", w, err))
		}
	}
	return failed
}
