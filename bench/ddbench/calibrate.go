package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the harness reads back.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer   []struct{ Name, Unit, Better string } `json:"per_layer"`
	RunSeconds int                                   `json:"run_seconds"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// child runs one workload once in a fresh process of this binary — a run's
// peak RSS, heap and scheduler state are its own — and returns its report.
// The child's output goes to echo when non-nil.
func child(cmd string, f runFlags, echo *os.File) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{cmd, "-workload", f.workload,
		"-seed", strconv.FormatInt(f.opt.seed, 10),
		"-seconds", strconv.FormatFloat(f.opt.seconds, 'g', -1, 64),
		"-out", f.opt.outDir}
	if f.opt.smoke {
		args = append(args, "-smoke")
	}
	c := exec.Command(exe, args...)
	c.Stderr = os.Stderr
	out, err := c.Output() // waits for the child to end
	if echo != nil {
		_, _ = echo.Write(out)
	}
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", cmd, f.workload, err)
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<22)
	for sc.Scan() {
		if line, ok := strings.CutPrefix(sc.Text(), "report: "); ok {
			var rep report
			if err := json.Unmarshal([]byte(line), &rep); err != nil {
				return nil, fmt.Errorf("%s %s: report line: %w", cmd, f.workload, err)
			}
			return &rep, nil
		}
	}
	return nil, fmt.Errorf("%s %s: no report line in the output", cmd, f.workload)
}

// allCmd runs every workload end to end and traced, each run in a fresh
// process, printing every metric by name; it fails on any failed operation.
func allCmd(args []string) error {
	var f runFlags
	fs := flag.NewFlagSet("ddbench all", flag.ContinueOnError)
	f.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	failed := 0
	for _, w := range allWorkloads {
		if f.workload != "" && f.workload != w.name {
			continue
		}
		f.workload = w.name
		for _, cmd := range []string{"run", "trace"} {
			rep, err := child(cmd, f, os.Stdout)
			if err != nil {
				return err
			}
			failed += rep.Failed
		}
		f.workload = ""
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// calibrateCmd measures the noise of the current tree: K sets of N runs per
// workload, the same seeds in every set, as the driver does it. Per workload
// and end-to-end metric it prints the set medians' largest disagreement and
// the widest within-set quartile distance, both as a share of the median,
// and fails if a bound in BENCHMARK.json is below 1.5x either.
func calibrateCmd(args []string) error {
	var f runFlags
	fs := flag.NewFlagSet("ddbench calibrate", flag.ContinueOnError)
	f.register(fs)
	sets := fs.Int("sets", 3, "sets of runs")
	runs := fs.Int("runs", 5, "runs per set, each with its own seed")
	file := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sets < 2 || *runs < 2 {
		return fmt.Errorf("need at least 2 sets of 2 runs")
	}
	bf, err := readBenchmarkFile(*file)
	if err != nil {
		return err
	}
	only := f.workload

	s := newStamp()
	fmt.Printf("calibrate: %d sets x %d runs x %gs, seeds %d..%d; host %s nproc %d %s commit %s %s\n\n",
		*sets, *runs, f.opt.seconds, f.opt.seed, f.opt.seed+int64(*runs)-1, s.Host, s.NProc, s.Go, s.Commit, s.Date)
	fmt.Println("| workload | metric | median | set medians max dev | within-set IQR (max) | same, as measured | bound | ok |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	tooTight := 0
	for _, w := range allWorkloads {
		if only != "" && only != w.name {
			continue
		}
		f.workload = w.name
		// values[metric][set] = the set's run values; raw the same for the
		// timing metrics before the machine-speed correction.
		values, raw := make(map[string][][]float64), make(map[string][][]float64)
		for k := 0; k < *sets; k++ {
			for _, m := range endToEnd {
				values[m.name] = append(values[m.name], nil)
				raw[m.name] = append(raw[m.name], nil)
			}
			for i := 0; i < *runs; i++ {
				g := f
				g.opt.seed = f.opt.seed + int64(i)
				rep, err := child("run", g, nil)
				if err != nil {
					return err
				}
				if rep.Failed > 0 {
					return fmt.Errorf("%s seed %d: %d operations failed: %s", w.name, g.opt.seed, rep.Failed, strings.Join(rep.Failures, "; "))
				}
				for _, m := range endToEnd {
					values[m.name][k] = append(values[m.name][k], rep.Metrics[m.name].Value)
					if r := rep.Metrics[m.name].Raw; r != 0 {
						raw[m.name][k] = append(raw[m.name][k], r)
					}
				}
			}
		}
		for _, b := range bf.EndToEnd {
			var meds []float64
			iqr := 0.0
			for _, set := range values[b.Name] {
				meds = append(meds, median(set))
				iqr = max(iqr, spread(set))
			}
			lo, hi := minMax(meds)
			dev := 0.0
			if m := median(meds); m != 0 {
				dev = (hi - lo) / m
			}
			measured := ""
			if len(raw[b.Name][0]) > 0 {
				rawIQR := 0.0
				for _, set := range raw[b.Name] {
					rawIQR = max(rawIQR, spread(set))
				}
				measured = fmt.Sprintf("%.2f%%", 100*rawIQR)
			}
			ok := "yes"
			if b.Bound < 1.5*dev || b.Bound < 1.5*iqr {
				ok = "NO"
				tooTight++
			}
			fmt.Printf("| %s | %s | %.6g %s | %.2f%% | %.2f%% | %s | %.1f%% | %s |\n",
				w.name, b.Name, median(meds), b.Unit, 100*dev, 100*iqr, measured, 100*b.Bound, ok)
		}
	}
	if tooTight > 0 {
		return fmt.Errorf("%d bounds are below 1.5x the observed noise", tooTight)
	}
	return nil
}
