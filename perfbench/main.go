// Command perfbench is the repository benchmark. It boots the loopback
// Janus deployment (LB, 2 routers, 2 janusd, minisql) in process on the
// daemons' shipped flag defaults, drives one named workload with closed-loop
// HTTP clients, checks the answers, runs the Fig 12 DES deployments, and
// prints every metric by name and unit. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	go run . --workload steady --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 makes a separate
// traced run (spans around every call, CPU profile, per-layer passes) and
// reports the per-layer metrics. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/failpoint"
)

// metricDef is one reported metric; bound is set for end-to-end metrics.
// The timing bounds are wide because the shared 2-vCPU runner's speed
// drifts from run to run (see README.md); the count ratios are tight.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_rps", "req/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"latency_p90_us", "us", "lower", 0.25},
	{"cpu_us_per_request", "us", "lower", 0.25},
	{"real_verdict_frac", "ratio", "higher", 0.05},
	{"decisions_per_request", "ratio", "lower", 0.1},
	{"rule_visible_p50_ms", "ms", "lower", 0.25},
	{"rule_visible_p99_ms", "ms", "lower", 0.25},
	{"sim_events_per_s", "events/s", "higher", 0.25},
}

var perLayer = []metricDef{
	{"trace.throughput_rps", "req/s", "higher", 0},
	{"client.error_frac", "ratio", "lower", 0},
	{"client.latency_p99_us", "us", "lower", 0},
	{"client.latency_p999_us", "us", "lower", 0},
	{"lb.http_us_p50", "us", "lower", 0},
	{"lb.http_us_p99", "us", "lower", 0},
	{"lb.self_us_p50", "us", "lower", 0},
	{"lb.allocs_per_op", "count", "lower", 0},
	{"lb.bytes_per_op", "B", "lower", 0},
	{"lb.backend_errors", "count", "lower", 0},
	{"router.http_us_p50", "us", "lower", 0},
	{"router.http_us_p99", "us", "lower", 0},
	{"router.route_us_p50", "us", "lower", 0},
	{"router.route_us_p99", "us", "lower", 0},
	{"router.self_us_p50", "us", "lower", 0},
	{"router.http_allocs_per_op", "count", "lower", 0},
	{"router.http_bytes_per_op", "B", "lower", 0},
	{"router.default_reply_frac", "ratio", "lower", 0},
	{"transport.do_us_p50", "us", "lower", 0},
	{"transport.do_us_p99", "us", "lower", 0},
	{"transport.do_allocs_per_op", "count", "lower", 0},
	{"transport.do_timeouts", "count", "lower", 0},
	{"transport.attempts_per_req", "ratio", "lower", 0},
	{"transport.timeouts_per_req", "ratio", "lower", 0},
	{"qosserver.decide_ns_p50", "ns", "lower", 0},
	{"qosserver.decide_allocs_per_op", "count", "lower", 0},
	{"qosserver.queue_us_p99", "us", "lower", 0},
	{"qosserver.decide_stage_us_p50", "us", "lower", 0},
	{"qosserver.decide_stage_us_p90", "us", "lower", 0},
	{"qosserver.send_us_p99", "us", "lower", 0},
	{"qosserver.degraded_frac", "ratio", "lower", 0},
	{"qosserver.dropped", "count", "lower", 0},
	{"qosserver.sync_pass_ms", "ms", "lower", 0},
	{"qosserver.checkpoint_pass_ms", "ms", "lower", 0},
	{"qosserver.resident_keys", "count", "lower", 0},
	{"store.get_us_p50", "us", "lower", 0},
	{"store.get_us_p99", "us", "lower", 0},
	{"store.put_us_p50", "us", "lower", 0},
	{"des.events", "count", "lower", 0},
	{"des.ns_per_event", "ns", "lower", 0},
	{"des.allocs_per_event", "count", "lower", 0},
	{"cpu_share.lb", "ratio", "lower", 0},
	{"cpu_share.router", "ratio", "lower", 0},
	{"cpu_share.transport", "ratio", "lower", 0},
	{"cpu_share.qosserver", "ratio", "lower", 0},
	{"cpu_share.minisql", "ratio", "lower", 0},
	{"cpu_share.net_http", "ratio", "lower", 0},
	{"cpu_share.runtime_gc", "ratio", "lower", 0},
	{"cpu_share.syscall", "ratio", "lower", 0},
	{"cpu_share.bench_client", "ratio", "lower", 0},
	{"cpu_share.other", "ratio", "lower", 0},
	{"gc.cycles_per_10k_req", "count", "lower", 0},
	{"gc.pause_us_p99", "us", "lower", 0},
}

// metricSet collects metric values by name.
type metricSet map[string]float64

func (m metricSet) add(name string, v float64) { m[name] = v }

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// options are one run's settings; tests shrink the sizes.
type options struct {
	workload  Workload
	seed      int64
	window    time.Duration
	warm      time.Duration
	trace     bool
	setups    int // boots whose median is setup_s
	sim       simSlice
	simPasses int
	passes    passSizes
	spansDir  string
}

func main() {
	var (
		name     = flag.String("workload", "", "workload name: steady, slow-backend or rules-churn")
		seed     = flag.Int64("seed", 1, "seed for every generated input")
		seconds  = flag.Int("seconds", 20, "measured closed-loop window in seconds")
		traced   = flag.Int("trace", 0, "1 makes the traced run and reports per-layer metrics")
		spansDir = flag.String("spans-dir", ".bench_build/spans", "directory the traced run writes its spans to")
	)
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err != nil || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %v (workloads: steady, slow-backend, rules-churn; --seconds >= 1)\n", err)
		os.Exit(2)
	}
	opt := options{
		workload:  w,
		seed:      *seed,
		window:    time.Duration(*seconds) * time.Second,
		warm:      time.Second,
		trace:     *traced == 1,
		setups:    3,
		sim:       benchSlice,
		simPasses: 7,
		passes:    fullPasses,
		spansDir:  *spansDir,
	}
	if opt.trace {
		opt.setups = 1
	}
	// The process exits without stopping the deployment: exit ends its
	// goroutines, and an orderly close would wait out a sync pass.
	res, _, err := run(opt, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if err != nil || !res.Correct {
		os.Exit(1)
	}
}

// run performs one benchmark run and returns its result and a function that
// stops the deployment. Progress, the resolved configuration and runner
// metadata go to log. A failed correctness check returns an error and
// leaves Correct false.
func run(opt options, log io.Writer) (res result, stop func(), err error) {
	res = result{Metrics: map[string]metricOut{}}
	stop = func() {}
	w := opt.workload
	in := newInputs(w, opt.seed)
	cfg := shippedConfig(nil)
	printJSON(log, "config", map[string]any{
		"workload": w.Name, "seed": opt.seed, "window_s": opt.window.Seconds(), "trace": opt.trace,
		"routers": cfg.Routers, "janusd": cfg.QoSServers, "mode": "gateway", "lb_policy": cfg.LBPolicy,
		"transport_timeout": cfg.Transport.Timeout.String(), "transport_retries": cfg.Transport.Retries,
		"codel_target": cfg.CodelTarget.String(), "codel_interval": cfg.CodelInterval.String(),
		"audit": cfg.Audit, "audit_interval": cfg.AuditInterval.String(),
		"sync": cfg.SyncInterval.String(), "checkpoint": cfg.CheckpointInterval.String(),
		"listeners": cfg.QoSListeners, "workers": "GOMAXPROCS", "table": cfg.TableKind,
		"decision_clients": w.decisionClients(), "dedicated_rule_writer": w.DedicatedRules,
		"keys": w.Keys, "low_frac": lowFrac, "zipf": w.Zipf, "probes": w.Probes,
		"write_every": w.WriteEvery.String(), "failpoint": failpointSpec(w, opt.seed),
	})
	meta := runnerMeta(opt.seed)
	last := time.Now()
	phase := func(name string) {
		fmt.Fprintf(log, "phase %-10s %7.2fs\n", name, time.Since(last).Seconds())
		last = time.Now()
	}

	var tr *tracer
	if opt.trace {
		tr = newTracer()
	}
	m := metricSet{}

	// The DES phase runs first, alone in the process: simPasses identical
	// passes, which must agree, and the median rate. The rate is per second
	// of process CPU, GC included: wall time also counts what other guests
	// of a shared host take, which halved the wall rate in some runs of the
	// same code.
	var sr simResult
	var rates, wallRates []float64
	var simCPU time.Duration
	var simAllocs uint64
	simSteal0, simTotal0 := cpuTicks()
	for i := 0; i < opt.simPasses; i++ {
		p, err := runSim(opt.seed, opt.sim, tr)
		if err != nil {
			return res, stop, err
		}
		if i == 0 {
			sr = p
		} else if p.Digest != sr.Digest || p.Events != sr.Events {
			return res, stop, fmt.Errorf("sim seed %d is not deterministic: pass %d gave %d events digest %s, pass 1 %d %s", opt.seed, i+1, p.Events, p.Digest, sr.Events, sr.Digest)
		}
		rates = append(rates, float64(p.Events)/p.cpu.Seconds())
		wallRates = append(wallRates, float64(p.Events)/p.wall.Seconds())
		simCPU += p.cpu
		simAllocs += p.allocs
	}
	meta["sim_cpu_steal_frac"] = stealFrac(simSteal0, simTotal0)
	if err := checkSim(opt.seed, opt.sim, sr); err != nil {
		return res, stop, err
	}
	meta["sim_events"] = sr.Events
	meta["sim_wall_events_per_s"] = median(wallRates)
	meta["sim_digest"] = sr.Digest
	simEvents := float64(sr.Events * opt.simPasses)
	if opt.trace {
		m.add("des.events", float64(sr.Events))
		m.add("des.ns_per_event", float64(simCPU)/simEvents)
		m.add("des.allocs_per_event", float64(simAllocs)/simEvents)
	} else {
		m.add("sim_events_per_s", median(rates))
	}
	runtime.GC()
	phase("sim")

	if spec := failpointSpec(w, opt.seed); spec != "" {
		if err := failpoint.ArmSpec(spec); err != nil {
			return res, stop, err
		}
		defer failpoint.DisarmAll()
	}

	// Set up opt.setups times and keep the last deployment. The caller stops
	// it: closing waits for in-flight sync and checkpoint passes.
	var c *cluster.Cluster
	var setups []float64
	for i := 0; i < opt.setups; i++ {
		if c != nil {
			c.Close()
			runtime.GC()
		}
		var d time.Duration
		if c, d, err = boot(in); err != nil {
			return res, stop, err
		}
		stop = c.Close
		setups = append(setups, d.Seconds())
		phase("setup")
	}

	if opt.warm > 0 {
		if _, err := loop(c, w, in, opt.warm, nil, nil, nil); err != nil {
			return res, stop, err
		}
	}
	phase("warm")
	var prof bytes.Buffer
	if opt.trace {
		resetSojourn(c)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return res, stop, err
		}
	}
	steal0, total0 := cpuTicks()
	live, err := runLive(c, w, in, opt.window, tr)
	meta["cpu_steal_frac"] = stealFrac(steal0, total0)
	if opt.trace {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return res, stop, err
	}
	res.Attempted, res.Failed = live.totals()
	res.Attempted += int64(sr.points * opt.simPasses)
	phase("live")

	// Correctness: every answer parsed (checked in loop), audit ok on every
	// janusd, every probe key holds its last write.
	if err := checkAudit(c); err != nil {
		return res, stop, err
	}
	if err := live.rules.checkFinal(); err != nil {
		return res, stop, err
	}
	meta["rule_writes"] = live.rules.writes
	meta["rule_writes_superseded"] = live.rules.superseded
	meta["decide_stage_us_p90"] = float64(sojourn(c, "decide").Quantile(0.9)) / 1e3

	if opt.trace {
		live.windowLayers(c, m)
		shares, err := cpuShares(prof.Bytes())
		if err != nil {
			return res, stop, err
		}
		for g, v := range shares {
			m.add("cpu_share."+g, v)
		}
		if err := layerPasses(c, in, live.rules, tr, opt.passes, m); err != nil {
			return res, stop, err
		}
		if err := checkAudit(c); err != nil {
			return res, stop, err
		}
		path, err := tr.write(opt.spansDir, fmt.Sprintf("%s-seed%d.jsonl.gz", w.Name, opt.seed))
		if err != nil {
			return res, stop, err
		}
		meta["spans"] = path
		meta["span_count"] = len(tr.spans)
	} else {
		live.endToEnd(m)
		m.add("setup_s", median(setups))
		meta["latency_p99_us"], meta["latency_p999_us"] = live.tails()
		meta["sub_throughput_rps"], meta["sub_latency_p50_us"], meta["sub_cpu_us_per_request"] = live.subSeries()
	}
	phase("checks")
	printJSON(log, "meta", meta)

	defs := endToEnd
	if opt.trace {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return res, stop, fmt.Errorf("metric %s missing or not finite (%v)", d.Name, v)
		}
		res.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
		fmt.Fprintf(log, "%-32s %14.4f %s\n", d.Name, v, d.Unit)
	}
	res.Correct = true
	return res, stop, nil
}

func failpointSpec(w Workload, seed int64) string {
	if w.Failpoint == "" {
		return ""
	}
	return fmt.Sprintf(w.Failpoint, seed)
}

// commit is the source revision, set by run.sh at link time.
var commit = "unknown"

// runnerMeta records what the numbers were measured on.
func runnerMeta(seed int64) map[string]any {
	return map[string]any{
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"cpu_model":     cpuModel(),
		"go_version":    runtime.Version(),
		"commit":        commit,
		"seed":          seed,
		"sleep_1ms_us":  sleepFloor(time.Millisecond),
		"sleep_50us_us": sleepFloor(50 * time.Microsecond),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// cpuTicks reads the host's cumulative steal and total CPU ticks: time a
// shared host gave to other guests shows up as steal.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i == 7 {
			steal = v
		}
		if i < 8 {
			total += v
		}
	}
	return steal, total
}

// stealFrac is the host's steal share of CPU ticks since steal0, total0.
func stealFrac(steal0, total0 uint64) float64 {
	steal1, total1 := cpuTicks()
	return float64(steal1-steal0) / float64(max(total1-total0, 1))
}

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

// sleepFloor is the median measured length, in µs, of time.Sleep(d): a
// failpoint delay shorter than this floor stalls for the floor instead.
func sleepFloor(d time.Duration) float64 {
	var xs []float64
	for i := 0; i < 21; i++ {
		t0 := time.Now()
		time.Sleep(d)
		xs = append(xs, us(time.Since(t0)))
	}
	return median(xs)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func printJSON(f io.Writer, label string, v any) {
	b, _ := json.Marshal(v)
	fmt.Fprintf(f, "%s: %s\n", label, b)
}
