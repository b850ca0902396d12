// Command perfbench is the repository's benchmark: one workload per
// run, its outputs checked, its end-to-end metrics (or, with -trace 1,
// its per-layer ledger) printed as the last line of standard output.
//
//	perfbench -workload batch-cold|serve-hit|proxy-miss [-seed 7]
//	          [-seconds 10] [-trace 0|1] [-bin dir] [-work dir]
//
// -bin names the directory holding the rallocd and rallocproxy
// binaries the served workloads launch; -work is where daemon logs,
// address files and the traced run's span file go. run.sh builds
// everything under .bench_build and passes both. See README.md for the
// workloads, the metrics and what each is predicted to move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// endToEnd are the metrics a -trace 0 run prints, with their units.
var endToEnd = map[string]string{
	"ops_per_s":     "1/s",
	"p50_ms":        "ms",
	"p99_ms":        "ms",
	"allocs_per_op": "count",
	"bytes_per_op":  "B",
	"code_cycles":   "cycles",
	"setup_s":       "s",
}

// perLayer are the metrics a -trace 1 run prints, with their units.
var perLayer = func() map[string]string {
	m := map[string]string{
		"iloc.parse_us":                      "us",
		"iloc.print_us":                      "us",
		"driver.key_us":                      "us",
		"driver.key_allocs":                  "count",
		"driver.cache_get_us":                "us",
		"driver.cache_put_us":                "us",
		"driver.cache_hit_ratio":             "ratio",
		"driver.worker_util":                 "ratio",
		"core.allocate_us":                   "us",
		"core.allocs_per_routine":            "count",
		"core.iterations_per_routine":        "count",
		"core.spilled_per_routine":           "count",
		"core.remat_share":                   "ratio",
		"core.ig_edges_per_routine":          "count",
		"verify.check_us":                    "us",
		"verify.allocs_per_routine":          "count",
		"verify.differential_eligible_share": "ratio",
		"server.engine_ms":                   "ms",
		"server.edge_ms":                     "ms",
		"server.cache_hit_ratio":             "ratio",
		"server.shed":                        "count",
		"cluster.route_us":                   "us",
		"cluster.route_allocs":               "count",
		"cluster.relay_ms":                   "ms",
		"cluster.retries":                    "count",
		"cluster.owner_share":                "ratio",
		"trace.overhead_pct":                 "%",
	}
	for _, p := range passNames {
		m["core."+p+"_us"] = "us"
	}
	return m
}()

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 3

// maxLoad bounds the load generator's workers and connections: load
// comes from one process with at most this many, and never more than
// the host's CPUs.
const maxLoad = 2

func loadWorkers() int { return max(1, min(maxLoad, runtime.GOMAXPROCS(0))) }

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	bin      string
	work     string
}

// phase is how long the timed phase runs: all of -seconds untraced, or
// half of it when the ledger shares the run.
func (c *config) phase() time.Duration {
	if c.trace {
		return c.seconds / 2
	}
	return c.seconds
}

// outcome is what one workload run measured and checked.
type outcome struct {
	attempted int
	failed    int
	problems  []string // first few failed checks, for stderr
	e2e       map[string]float64
	layers    map[string]float64
	shape     map[string]any
	rec       *recorder
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}, shape: map[string]any{}}
}

// fail counts one failed op.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 10 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
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

var workloads = map[string]func(*config) (*outcome, error){
	"batch-cold": runBatchCold,
	"serve-hit":  runServeHit,
	"proxy-miss": runProxyMiss,
}

func main() {
	cfg := &config{}
	flag.StringVar(&cfg.workload, "workload", "", "batch-cold, serve-hit or proxy-miss")
	flag.Int64Var(&cfg.seed, "seed", 7, "corpus seed: the same seed gives the same inputs")
	secs := flag.Int("seconds", 10, "length of the measured run")
	trace := flag.Int("trace", 0, "1: print the per-layer ledger instead of the end-to-end metrics")
	flag.StringVar(&cfg.bin, "bin", "", "directory holding the rallocd and rallocproxy binaries")
	flag.StringVar(&cfg.work, "work", filepath.Join(".bench_build", "run"), "directory for daemon logs, address files and spans")
	flag.Parse()
	cfg.seconds = time.Duration(*secs) * time.Second
	cfg.trace = *trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fail(errors.New("usage: perfbench -workload batch-cold|serve-hit|proxy-miss [-seed n] [-seconds n] [-trace 0|1]"))
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fail(err)
	}
	o, err := run(cfg)
	if err != nil {
		fail(err)
	}
	res, err := report(cfg, o)
	if err != nil {
		fail(err)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// report writes the spans, prints the run's shape and then the result
// line, and returns the result.
func report(cfg *config, o *outcome) (*result, error) {
	o.shape["workload"] = cfg.workload
	o.shape["seed"] = cfg.seed
	o.shape["nproc"] = runtime.NumCPU()
	o.shape["gomaxprocs"] = runtime.GOMAXPROCS(0)
	o.shape["go_version"] = runtime.Version()
	o.shape["attempted"] = o.attempted
	o.shape["failed"] = o.failed
	o.shape["fail_rate"] = float64(o.failed) / float64(max(1, o.attempted))
	want, got := endToEnd, o.e2e
	if cfg.trace {
		want, got = perLayer, o.layers
		path := filepath.Join(cfg.work, fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))
		if err := o.rec.write(path); err != nil {
			return nil, err
		}
		o.shape["spans"] = path
	}
	res := &result{Correct: o.failed == 0 && o.attempted > 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	var missing []string
	for name, unit := range want {
		v, ok := got[name]
		if !ok {
			missing = append(missing, name)
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("workload %s did not measure %v", cfg.workload, missing)
	}
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	shape, err := json.Marshal(map[string]any{"shape": o.shape})
	if err != nil {
		return nil, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Printf("%s\n%s\n", shape, line)
	return res, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
