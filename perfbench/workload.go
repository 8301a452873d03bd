package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/bucket"
)

// Workload is one named traffic mix. Every workload boots the same shipped
// deployment; they differ in key population, key skew, client mix, rule
// write rate and injected faults.
type Workload struct {
	Name string
	Why  string

	// Keys is the number of decision keys, all with DB rules and all
	// resident on both QoS servers after preload.
	Keys int
	// Zipf is the key-popularity exponent; 0 draws keys uniformly.
	Zipf float64
	// DedicatedRules gives the rule writer its own goroutine; otherwise
	// decision client 0 issues the writes between its decisions.
	DedicatedRules bool
	// Probes is the number of resident probe keys whose geometry the rule
	// writer rewrites in rotation. Decisions never touch probe keys.
	Probes int
	// WriteEvery is the fixed period between rule writes.
	WriteEvery time.Duration
	// Failpoint, when set, is armed for the run; %d takes the seed.
	Failpoint string
}

var workloads = []Workload{
	{
		Name:       "steady",
		Why:        "uniform keys with rules, both verdicts: HTTP tiers and janusd socket path do the work, rules plane and retries idle",
		Keys:       10000,
		Probes:     128,
		WriteEvery: 100 * time.Millisecond,
	},
	{
		Name:       "slow-backend",
		Why:        "steady plus 20% of janusd decide stages stalled 1ms, past the 100us attempt timeout: retries, default replies and double charges",
		Keys:       10000,
		Probes:     128,
		WriteEvery: 100 * time.Millisecond,
		Failpoint:  "qosserver/worker/decide=delay(d=1ms,p=0.2,seed=%d)",
	},
	{
		Name:           "rules-churn",
		Why:            "Zipf 1.1 over 100k resident keys beside a steady rule writer: per-key sync polling and checkpoint write-back compete with decisions",
		Keys:           100000,
		Zipf:           1.1,
		DedicatedRules: true,
		Probes:         2048,
		WriteEvery:     20 * time.Millisecond,
	},
}

func lookupWorkload(name string) (Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// decisionClients is the number of closed-loop HTTP decision clients. With
// a dedicated rule writer one of the nproc client goroutines is the writer.
func (w Workload) decisionClients() int {
	n := runtime.NumCPU()
	if w.DedicatedRules {
		n--
	}
	return max(n, 1)
}

// Inputs are every key, rule and probe write the program receives in one
// run; all of it is derived from the workload and the seed.
type Inputs struct {
	Rules  []bucket.Rule // decision keys then probe keys
	Keys   []string      // decision keys, in popularity order
	Probes []string      // probe keys
	seed   int64
}

// Decision-key rules: a lowFrac share of keys gets the low refill rate, so
// that both allow and deny verdicts flow.
const (
	highRate, highCap = 200.0, 400.0
	lowRate, lowCap   = 0.05, 1.0
	lowFrac           = 0.2
)

func newInputs(w Workload, seed int64) Inputs {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, w.Keys+w.Probes)
	fresh := func(prefix string) string {
		for {
			k := fmt.Sprintf("%s%016x", prefix, rng.Uint64())
			if !seen[k] {
				seen[k] = true
				return k
			}
		}
	}
	in := Inputs{seed: seed}
	for i := 0; i < w.Keys; i++ {
		k := fresh("u")
		r := bucket.Rule{Key: k, RefillRate: highRate, Capacity: highCap, Credit: highCap}
		if rng.Float64() < lowFrac {
			r = bucket.Rule{Key: k, RefillRate: lowRate, Capacity: lowCap, Credit: lowCap}
		}
		in.Keys = append(in.Keys, k)
		in.Rules = append(in.Rules, r)
	}
	for i := 0; i < w.Probes; i++ {
		k := fresh("p")
		in.Probes = append(in.Probes, k)
		in.Rules = append(in.Rules, bucket.Rule{Key: k, RefillRate: 1, Capacity: 1, Credit: 1})
	}
	return in
}

// keyStream returns decision client i's key sequence.
func (in Inputs) keyStream(w Workload, i int) func() string {
	rng := rand.New(rand.NewSource(in.seed*1000003 + int64(i) + 1))
	if w.Zipf > 0 {
		z := rand.NewZipf(rng, w.Zipf, 1, uint64(len(in.Keys)-1))
		return func() string { return in.Keys[z.Uint64()] }
	}
	return func() string { return in.Keys[rng.Intn(len(in.Keys))] }
}

// probeStream returns the rule writer's sequence of writes: probe keys in
// rotation, each given a geometry unlike its previous one.
func (in Inputs) probeStream() func() bucket.Rule {
	rng := rand.New(rand.NewSource(in.seed*7919 + 17))
	last := make(map[string]float64, len(in.Probes))
	n := 0
	return func() bucket.Rule {
		k := in.Probes[n%len(in.Probes)]
		n++
		rate := float64(2 + rng.Intn(100000))
		if rate == last[k] {
			rate++
		}
		last[k] = rate
		c := float64(1 + rng.Intn(1000))
		return bucket.Rule{Key: k, RefillRate: rate, Capacity: c, Credit: c}
	}
}
