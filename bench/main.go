// Command bench is the repository's benchmark: four workloads that each
// stress different layers, every result checked for correctness, every
// metric printed by name with its unit. See README.md in this directory.
//
//	go run ./bench                      all four workloads, end-to-end metrics
//	go run ./bench -trace               all four, per-layer metrics and span files
//	go run ./bench -aa                  the full set twice, compared with the bounds
//	go run ./bench -workload exec_tpch  one workload in this process
//
// BENCHMARK.json's command (bash bench/run.sh) builds this package inside
// the checkout and runs one workload per invocation.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	cfg := &config{}
	var aa bool
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "run this one workload in this process (default: all four, each in a process of its own)")
	fs.Int64Var(&cfg.seed, "seed", 42, "decides the order of operations and the literals they carry")
	fs.Float64Var(&cfg.seconds, "seconds", 16, "how long to measure; whole passes are run until the time is up")
	fs.BoolVar(&cfg.trace, "trace", false, "report the per-layer metrics and write bench/out/trace_<workload>.json")
	fs.IntVar(&cfg.passes, "passes", 0, "measure exactly this many passes instead of -seconds")
	fs.Float64Var(&cfg.sf, "sf", 0, "TPC-H scale factor (default 0.01; exec_tpch 0.05)")
	fs.StringVar(&cfg.outDir, "out", "bench/out", "directory for trace files")
	fs.BoolVar(&aa, "aa", false, "run the full set twice and compare every end-to-end metric with its bound in BENCHMARK.json")
	if err := fs.Parse(boolValues(args, "trace")); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	if cfg.workload != "" {
		printHost(stdout)
		res, err := runWorkload(cfg, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		line, _ := json.Marshal(res)
		fmt.Fprintln(stdout, string(line))
		if !res.Correct {
			return 1
		}
		return 0
	}

	var sets []map[string]*result
	rounds := 1
	if aa {
		rounds = 2
	}
	for len(sets) < rounds {
		set, ok := runAll(fs, stdout, stderr)
		if !ok {
			return 1
		}
		sets = append(sets, set)
	}
	if aa {
		return compareSets(sets[0], sets[1], stdout, stderr)
	}
	return 0
}

// boolValues lets a flag be given both as a Go boolean (-trace) and with
// a separate value (--trace 1), which is how the benchmark driver passes
// it, by folding the value into the flag.
func boolValues(args []string, name string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if strings.TrimLeft(a, "-") == name && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// printHost records what the numbers were measured on.
func printHost(w io.Writer) {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d clients=%d %s %s/%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), clients(), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit)
}

// runAll runs every workload in a process of its own, with this process's
// flags, and prints each metric. A workload whose process crashes or
// reports a failed operation makes the set fail.
func runAll(fs *flag.FlagSet, stdout, stderr io.Writer) (map[string]*result, bool) {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return nil, false
	}
	var pass []string
	fs.Visit(func(f *flag.Flag) {
		if f.Name != "aa" {
			pass = append(pass, "-"+f.Name+"="+f.Value.String())
		}
	})
	set, ok := map[string]*result{}, true
	for _, name := range workloadNames {
		cmd := exec.Command(self, append([]string{"-workload=" + name}, pass...)...)
		cmd.Stderr = stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return nil, false
		}
		if err := cmd.Start(); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return nil, false
		}
		var res *result
		sc := bufio.NewScanner(out)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			line := sc.Text()
			var r result
			if strings.HasPrefix(line, "{") && json.Unmarshal([]byte(line), &r) == nil {
				res = &r
				continue
			}
			fmt.Fprintln(stdout, line)
		}
		werr := cmd.Wait()
		if res == nil {
			fmt.Fprintf(stderr, "bench: %s: no result (%v): every operation counts as failed\n", name, werr)
			ok = false
			continue
		}
		set[name] = res
		printResult(stdout, name, res)
		if werr != nil || !res.Correct {
			ok = false
		}
	}
	return set, ok
}

func printResult(w io.Writer, workload string, res *result) {
	defs := endToEndMetrics
	if _, traced := res.Metrics[perLayerMetrics[0].name]; traced {
		defs = perLayerMetrics
	}
	fmt.Fprintf(w, "%-18s %-28s %14d\n", workload, "attempted", res.Attempted)
	fmt.Fprintf(w, "%-18s %-28s %14d\n", workload, "failed", res.Failed)
	for _, d := range defs {
		m := res.Metrics[d.name]
		fmt.Fprintf(w, "%-18s %-28s %14.6g %s\n", workload, d.name, m.Value, m.Unit)
	}
	fmt.Fprintln(w)
}

// benchmarkFile is the part of BENCHMARK.json the A/A check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareSets prints, for every end-to-end metric on every workload, both
// values, how much worse the second is than the first as a share of the
// first, and the bound; it fails when a difference is outside its bound in
// either direction, since both sets ran the same code.
func compareSets(a, b map[string]*result, stdout, stderr io.Writer) int {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	var file benchmarkFile
	if err := json.Unmarshal(data, &file); err != nil {
		fmt.Fprintln(stderr, "bench: BENCHMARK.json:", err)
		return 1
	}
	code := 0
	fmt.Fprintf(stdout, "%-18s %-20s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for _, name := range workloadNames {
		for _, m := range file.EndToEnd {
			x, y := a[name].Metrics[m.Name].Value, b[name].Metrics[m.Name].Value
			worse := (y - x) / x
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if math.Abs(worse) > m.Bound || math.IsNaN(worse) {
				verdict, code = "  OUTSIDE BOUND", 1
			}
			fmt.Fprintf(stdout, "%-18s %-20s %14.6g %14.6g %8.2f%% %6.1f%%%s\n", name, m.Name, x, y, 100*worse, 100*m.Bound, verdict)
		}
	}
	return code
}
