package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/bucket"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/router"
	"repro/internal/transport"
	"repro/internal/wire"
)

// passResult is one layer pass: per-op latencies (sorted) and the
// process-wide allocations per op while it ran.
type passResult struct {
	lat           []time.Duration
	allocs, bytes float64
}

func (p passResult) q(q float64) time.Duration { return quantile(p.lat, q) }

// pass calls op n times in a row from one goroutine, one span per call
// under a root span for the pass.
func pass(tr *tracer, name string, n int, op func(i int) error) (passResult, error) {
	root := tr.begin("pass "+name, 0)
	defer tr.end(root)
	lat := make([]time.Duration, n)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		sp := tr.begin(name, root)
		t0 := time.Now()
		err := op(i)
		lat[i] = time.Since(t0)
		tr.end(sp)
		if err != nil {
			return passResult{}, fmt.Errorf("pass %s: %w", name, err)
		}
	}
	runtime.ReadMemStats(&m1)
	sortDurations(lat)
	return passResult{
		lat:    lat,
		allocs: float64(m1.Mallocs-m0.Mallocs) / float64(n),
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n),
	}, nil
}

// passSizes are the calls per pass; tests shrink them.
type passSizes struct{ http, route, decideBatches, store int }

var fullPasses = passSizes{http: 3000, route: 3000, decideBatches: 2000, store: 2000}

// layerPasses times each layer from outside through its public entry
// point, each in its own pass, and adds the per-layer metrics.
func layerPasses(c *cluster.Cluster, in Inputs, rw *ruleWriter, tr *tracer, ps passSizes, m metricSet) error {
	srv := c.QoS[0].Master
	var owned []string // decision keys janusd 0 owns
	for _, k := range in.Keys {
		if i, _ := router.SelectBackend(k, len(c.QoS)); i == 0 {
			owned = append(owned, k)
		}
		if len(owned) == 4096 {
			break
		}
	}
	key := func(i int) string { return in.Keys[i%len(in.Keys)] }
	httpOp := func(addr string) func(int) error {
		cl := newHTTPClient()
		url := qosURL(addr)
		return func(i int) error {
			if v := get(cl, url, key(i)); v.err != nil {
				return v.err
			}
			return nil
		}
	}

	lbPass, err := pass(tr, "lb.GET /qos", ps.http, httpOp(c.LB.Addr()))
	if err != nil {
		return err
	}
	rtPass, err := pass(tr, "router.GET /qos", ps.http, httpOp(c.Routers[0].Addr()))
	if err != nil {
		return err
	}
	routePass, err := pass(tr, "router.Route", ps.route, func(i int) error {
		resp := c.Routers[0].Route(wire.Request{Key: key(i), Cost: 1})
		if resp.Status == wire.StatusError {
			return fmt.Errorf("status %s", resp.Status)
		}
		return nil
	})
	if err != nil {
		return err
	}
	tc, err := transport.Dial(srv.Addr(), shippedConfig(nil).Transport)
	if err != nil {
		return err
	}
	// An exchange that exhausts its attempts is the retry cliff, not a
	// failure of the benchmark: it is counted.
	var doTimeouts int
	doPass, err := pass(tr, "transport.Do", ps.route, func(i int) error {
		if _, err := tc.Do(wire.Request{Key: owned[i%len(owned)], Cost: 1}); err != nil {
			doTimeouts++
		}
		return nil
	})
	tc.Close()
	if err != nil {
		return err
	}
	const batch = 100
	decPass, err := pass(tr, "qosserver.Decide×100", ps.decideBatches, func(i int) error {
		for j := 0; j < batch; j++ {
			srv.Decide(wire.Request{Key: owned[(i*batch+j)%len(owned)], Cost: 1})
		}
		return nil
	})
	if err != nil {
		return err
	}
	getPass, err := pass(tr, "store.Get", ps.store, func(i int) error {
		_, found, err := c.Store.Get(key(i))
		if err == nil && !found {
			err = fmt.Errorf("rule for %s missing", key(i))
		}
		return err
	})
	if err != nil {
		return err
	}
	// Re-writing each probe key's current rule leaves every geometry as the
	// rule writer last set it.
	probeRule := func(i int) bucket.Rule {
		k := in.Probes[i%len(in.Probes)]
		if r, ok := rw.last[k]; ok {
			return r
		}
		return in.Rules[len(in.Keys)+i%len(in.Probes)]
	}
	putPass, err := pass(tr, "store.Put", min(ps.store, len(in.Probes)), func(i int) error { return c.Store.Put(probeRule(i)) })
	if err != nil {
		return err
	}
	syncPass, _ := pass(tr, "qosserver.SyncOnce", 1, func(int) error { srv.SyncOnce(); return nil })
	ckptPass, _ := pass(tr, "qosserver.CheckpointOnce", 1, func(int) error { srv.CheckpointOnce(); return nil })

	m.add("lb.http_us_p50", us(lbPass.q(0.5)))
	m.add("lb.http_us_p99", us(lbPass.q(0.99)))
	m.add("lb.self_us_p50", us(lbPass.q(0.5)-rtPass.q(0.5)))
	m.add("lb.allocs_per_op", lbPass.allocs)
	m.add("lb.bytes_per_op", lbPass.bytes)
	m.add("router.http_us_p50", us(rtPass.q(0.5)))
	m.add("router.http_us_p99", us(rtPass.q(0.99)))
	m.add("router.route_us_p50", us(routePass.q(0.5)))
	m.add("router.route_us_p99", us(routePass.q(0.99)))
	m.add("router.self_us_p50", us(rtPass.q(0.5)-doPass.q(0.5)))
	m.add("router.http_allocs_per_op", rtPass.allocs)
	m.add("router.http_bytes_per_op", rtPass.bytes)
	m.add("transport.do_us_p50", us(doPass.q(0.5)))
	m.add("transport.do_us_p99", us(doPass.q(0.99)))
	m.add("transport.do_allocs_per_op", doPass.allocs)
	m.add("transport.do_timeouts", float64(doTimeouts))
	m.add("qosserver.decide_ns_p50", float64(decPass.q(0.5))/batch)
	m.add("qosserver.decide_allocs_per_op", decPass.allocs/batch)
	m.add("qosserver.sync_pass_ms", ms(syncPass.q(0.5)))
	m.add("qosserver.checkpoint_pass_ms", ms(ckptPass.q(0.5)))
	m.add("qosserver.resident_keys", float64(srv.TableLen()))
	m.add("store.get_us_p50", us(getPass.q(0.5)))
	m.add("store.get_us_p99", us(getPass.q(0.99)))
	m.add("store.put_us_p50", us(putPass.q(0.5)))
	return nil
}

// sojourn returns janusd's per-stage sojourn histogram for stage, merged
// over every server.
func sojourn(c *cluster.Cluster, stage string) *metrics.Histogram {
	h := metrics.NewHistogram()
	for _, p := range c.QoS {
		h.Merge(stageHist(p.Master.Registry(), stage))
	}
	return h
}

func stageHist(reg *metrics.Registry, stage string) *metrics.Histogram {
	return reg.HistogramScaled("janus_qos_sojourn_seconds", "", 1e-9, metrics.Label{Key: "stage", Value: stage})
}

func resetSojourn(c *cluster.Cluster) {
	for _, p := range c.QoS {
		for _, st := range []string{"queue", "decide", "send"} {
			stageHist(p.Master.Registry(), st).Reset()
		}
	}
}

// windowLayers adds the per-layer metrics read from the traced live window.
func (r liveResult) windowLayers(c *cluster.Cluster, m metricSet) {
	b, a := r.before(), r.after()
	reqs := float64(max(a.routerReqs-b.routerReqs, 1))
	var answered, attempted, errored int64
	for _, st := range r.clients {
		answered += st.answered
		attempted += st.attempted
		errored += st.errored
	}
	m.add("trace.throughput_rps", r.throughput())
	m.add("client.error_frac", float64(errored)/float64(max(attempted, 1)))
	p99, p999 := r.tails()
	m.add("client.latency_p99_us", p99)
	m.add("client.latency_p999_us", p999)
	m.add("lb.backend_errors", float64(a.lbBackendErrors-b.lbBackendErrors))
	m.add("router.default_reply_frac", float64(a.defaultReplies-b.defaultReplies)/reqs)
	m.add("transport.attempts_per_req", float64(a.attempts-b.attempts)/reqs)
	m.add("transport.timeouts_per_req", float64(a.timeouts-b.timeouts)/reqs)
	answers := float64(max(a.decisions-b.decisions+a.degraded-b.degraded, 1))
	m.add("qosserver.degraded_frac", float64(a.degraded-b.degraded)/answers)
	m.add("qosserver.dropped", float64(a.dropped-b.dropped))
	m.add("qosserver.queue_us_p99", float64(sojourn(c, "queue").Quantile(0.99))/1e3)
	decide := sojourn(c, "decide")
	m.add("qosserver.decide_stage_us_p50", float64(decide.Quantile(0.5))/1e3)
	m.add("qosserver.decide_stage_us_p90", float64(decide.Quantile(0.9))/1e3)
	m.add("qosserver.send_us_p99", float64(sojourn(c, "send").Quantile(0.99))/1e3)
	m.add("gc.cycles_per_10k_req", float64(a.numGC-b.numGC)*1e4/float64(max(answered, 1)))
	m.add("gc.pause_us_p99", us(quantile(gcPauses(b, a), 0.99)))
}

// gcPauses returns the sorted stop-the-world pauses of the GC cycles that
// ended between two snapshots (at most the runtime's last 256).
func gcPauses(b, a counters) []time.Duration {
	var out []time.Duration
	for n := a.numGC; n > b.numGC && a.numGC-n < 256; n-- {
		out = append(out, time.Duration(a.pauses[(n+255)%256]))
	}
	sortDurations(out)
	return out
}
