package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"repro/internal/cloudsim"
	"repro/internal/sim"
)

// simPoint is one Fig 12 deployment: QoS-server scaling with the router
// layer fixed at five c3.8xlarge nodes (internal/cloudsim experiments.go).
type simPoint struct {
	label   string
	dep     cloudsim.Deployment
	clients int
}

// fig12 lists the Fig 12 deployments: Fig 10's vertical sweep then Fig 11's
// horizontal one.
func fig12() []simPoint {
	var out []simPoint
	for _, t := range sim.CSeries {
		out = append(out, simPoint{
			label:   "vertical/" + t.Name,
			dep:     cloudsim.Deployment{Routers: cloudsim.RouterNodes(sim.C38XLarge, 5), QoS: cloudsim.QoSNodes(t, 1)},
			clients: 1024,
		})
	}
	for n := 1; n <= 10; n++ {
		out = append(out, simPoint{
			label:   "horizontal/" + strconv.Itoa(n),
			dep:     cloudsim.Deployment{Routers: cloudsim.RouterNodes(sim.C38XLarge, 5), QoS: cloudsim.QoSNodes(sim.C3XLarge, n)},
			clients: 1536,
		})
	}
	return out
}

// simSlice is the virtual time each deployment runs. The paper sweep runs
// 1s warm-up plus 4s measured; the benchmark keeps the same deployments and
// load and runs 0.3s of virtual time.
type simSlice struct{ warmup, measure time.Duration }

var benchSlice = simSlice{warmup: 50 * time.Millisecond, measure: 250 * time.Millisecond}

// simResult is one pass over the Fig 12 deployments.
type simResult struct {
	Events int    `json:"events"`
	Digest string `json:"digest"`
	wall   time.Duration
	cpu    time.Duration // process user+sys CPU over the pass
	allocs uint64
	points int // deployments run
}

func runPoint(p simPoint, seed int64, sl simSlice) (cloudsim.Result, error) {
	return cloudsim.Run(p.dep, cloudsim.RunConfig{Clients: p.clients, Warmup: sl.warmup, Duration: sl.measure, Seed: seed})
}

// pointDigest hashes everything a run reports.
func pointDigest(label string, r cloudsim.Result) string {
	h := sha256.New()
	f := func(v float64) { fmt.Fprint(h, strconv.FormatFloat(v, 'g', -1, 64), " ") }
	fmt.Fprint(h, label, " ", r.Events, " ")
	f(r.Throughput)
	for _, n := range append(append([]cloudsim.NodeReport(nil), r.Routers...), r.QoS...) {
		f(n.Throughput)
		f(n.CPU)
	}
	fmt.Fprint(h, r.Latency.Count(), r.Latency.Sum(), r.Latency.Quantile(0.5), r.Latency.Quantile(0.99))
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// runSim runs every Fig 12 deployment once at the seed.
func runSim(seed int64, sl simSlice, tr *tracer) (simResult, error) {
	var res simResult
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start, cpu0 := time.Now(), processCPU()
	h := sha256.New()
	root := tr.begin("sim fig12", 0)
	defer tr.end(root)
	for _, p := range fig12() {
		sp := tr.begin("cloudsim.Run "+p.label, root)
		r, err := runPoint(p, seed, sl)
		tr.end(sp)
		if err != nil {
			return res, fmt.Errorf("sim %s: %w", p.label, err)
		}
		d := pointDigest(p.label, r)
		res.points++
		res.Events += r.Events
		fmt.Fprint(h, d)
	}
	res.wall, res.cpu = time.Since(start), processCPU()-cpu0
	runtime.ReadMemStats(&m1)
	res.allocs = m1.Mallocs - m0.Mallocs
	res.Digest = hex.EncodeToString(h.Sum(nil))[:16]
	return res, nil
}

// simGolden holds the event count and digest recorded per seed for
// benchSlice; testdata/fig12.json is rewritten by
// `go test -run TestSimGolden -update`.
//
//go:embed testdata/fig12.json
var simGoldenJSON []byte

func simGolden() (map[string]simResult, error) {
	var g map[string]simResult
	if err := json.Unmarshal(simGoldenJSON, &g); err != nil {
		return nil, fmt.Errorf("sim golden: %w", err)
	}
	return g, nil
}

// checkSim compares a pass with the event count and digest recorded for
// the seed, when there is a record.
func checkSim(seed int64, sl simSlice, res simResult) error {
	g, err := simGolden()
	if err != nil {
		return err
	}
	want, ok := g[strconv.FormatInt(seed, 10)]
	if !ok || sl != benchSlice {
		return nil
	}
	if res.Events != want.Events || res.Digest != want.Digest {
		return fmt.Errorf("sim seed %d: events %d digest %s, recorded %d %s", seed, res.Events, res.Digest, want.Events, want.Digest)
	}
	return nil
}
