// Command perfbench is the control-plane benchmark: it drives the GSC/LSC
// controller through its public entry points with seeded closed-loop
// workloads, checks every output against properties and independent
// recounts, and prints the end-to-end metrics (or, traced, the per-layer
// ones) as one JSON line. See README.md.
//
//	perfbench --workload churn --seed 1 --seconds 15 --trace 0
//	perfbench --workload churn --seed 1 --repeat 10   # steadiness table
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// host describes the machine a run measured.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	CPU        string `json:"cpu"`
}

func hostInfo() host {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPU: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func (h host) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q", h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.CPU)
}

// resultLine is the contract line: exactly these four keys.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the detailed record written next to the build output.
type report struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Seconds  float64           `json:"seconds"`
	Trace    int               `json:"trace"`
	Host     host              `json:"host"`
	Result   resultLine        `json:"result"`
	Problems []string          `json:"problems,omitempty"`
	Spread   map[string]spread `json:"spread,omitempty"`
}

// outDir holds reports and span files; it sits in the build directory the
// wrapper script uses.
const outDir = ".bench_build/perfbench"

func main() {
	wl := flag.String("workload", wlChurn, "workload: churn, churn-wire or handoff-recovery")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	traced := flag.Int("trace", 0, "1 replays the workload up the layer ladder and prints per-layer metrics")
	repeat := flag.Int("repeat", 0, "steadiness mode: run the workload N times (seeds seed..seed+N-1) and print each metric's spread")
	quick := flag.Bool("quick", false, "small audience and one set-up, for smoke tests")
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1"))
	}
	cfg, err := newConfig(*wl, *seed, *seconds, *quick)
	if err != nil {
		fail(err)
	}
	h := hostInfo()
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%d repeat=%d %s\n", cfg.workload, cfg.seed, cfg.seconds, *traced, *repeat, h)
	ctx := context.Background()
	rep := report{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: *traced, Host: h}
	var out outcome
	switch {
	case *repeat > 0:
		out, rep.Spread, err = steadiness(cfg, *quick, *repeat)
	case *traced == 1:
		out, err = runTraced(ctx, cfg, spanFile(cfg))
	default:
		out, err = runE2E(ctx, cfg)
	}
	if err != nil {
		fail(err)
	}
	for i, p := range out.problems {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d more\n", len(out.problems)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench:", p)
		rep.Problems = append(rep.Problems, p.Error())
	}
	rep.Result = resultLine{Correct: out.correct, Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics}
	writeReport(rep)
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

func spanFile(cfg config) string {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return ""
	}
	return filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.csv", cfg.workload, cfg.seed))
}

// writeReport stores the detailed report; failing to is not fatal.
func writeReport(rep report) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", rep.Workload, rep.Seed, rep.Trace)
	if rep.Spread != nil {
		name = fmt.Sprintf("%s-seed%d-repeat.json", rep.Workload, rep.Seed)
	}
	_ = os.WriteFile(filepath.Join(outDir, name), data, 0o644)
}

// spread summarizes one metric across repeated runs.
type spread struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	// IQR is (Q3-Q1)/Median, the share BENCHMARK.json's bounds are set from.
	IQR float64 `json:"iqr_share"`
}

// steadiness runs the end-to-end workload n times, one seed each, every run
// in its own process as the harness runs it, and reports every metric's
// median, quartiles and range.
func steadiness(cfg config, quick bool, n int) (outcome, map[string]spread, error) {
	all := outcome{correct: true, metrics: make(map[string]metric)}
	values := make(map[string][]float64)
	units := make(map[string]string)
	self, err := os.Executable()
	if err != nil {
		return all, nil, err
	}
	for i := 0; i < n; i++ {
		seed := cfg.seed + int64(i)
		args := []string{"--workload", cfg.workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(cfg.seconds), "--trace", "0"}
		if quick {
			args = append(args, "--quick")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return all, nil, fmt.Errorf("run %d (seed %d): %w", i+1, seed, err)
		}
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		var res resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return all, nil, fmt.Errorf("run %d (seed %d): %w", i+1, seed, err)
		}
		all.correct = all.correct && res.Correct
		all.attempted += res.Attempted
		all.failed += res.Failed
		fmt.Fprintf(os.Stderr, "perfbench: run %d/%d seed %d: correct=%v failed=%d/%d", i+1, n, seed, res.Correct, res.Failed, res.Attempted)
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		for _, name := range []string{"ops_per_s", "join_p50_us", "view_change_p50_us", "recovery_ms", "setup_s"} {
			fmt.Fprintf(os.Stderr, " %s=%.4g", name, res.Metrics[name].Value)
		}
		fmt.Fprintln(os.Stderr)
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	sp := make(map[string]spread)
	fmt.Printf("%-24s %-6s %12s %12s %12s %12s %12s %8s\n", "metric", "unit", "median", "q1", "q3", "min", "max", "iqr/med")
	for _, name := range names {
		v := append([]float64(nil), values[name]...)
		sort.Float64s(v)
		q1, med, q3 := quartiles(v)
		s := spread{Unit: units[name], Median: med, Q1: q1, Q3: q3, Min: v[0], Max: v[len(v)-1]}
		if med != 0 {
			s.IQR = (q3 - q1) / med
		}
		sp[name] = s
		all.metrics[name] = metric{Value: med, Unit: units[name]}
		fmt.Printf("%-24s %-6s %12.4f %12.4f %12.4f %12.4f %12.4f %8.4f\n", name, s.Unit, med, q1, q3, s.Min, s.Max, s.IQR)
	}
	return all, sp, nil
}

// quartiles mirrors Python's statistics.quantiles(data, n=4) (the
// "exclusive" method) on sorted data.
func quartiles(sorted []float64) (q1, q2, q3 float64) {
	ld := len(sorted)
	if ld == 1 {
		return sorted[0], sorted[0], sorted[0]
	}
	m := ld + 1
	q := [3]float64{}
	for i := 1; i < 4; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		q[i-1] = (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}
