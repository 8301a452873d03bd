package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/bucket"
	"repro/internal/cluster"
	"repro/internal/lb"
	"repro/internal/qosserver"
	"repro/internal/router"
	"repro/internal/store"
	"repro/internal/table"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Flag defaults of cmd/janusd that cluster.Config does not default the same
// way. config_test.go checks them against the daemons' flag definitions.
const (
	shippedSync          = 5 * time.Second
	shippedCheckpoint    = 10 * time.Second
	shippedAuditInterval = time.Second
	shippedMaxListeners  = 8
)

// shippedConfig is the deployment the daemons would form with their flag
// defaults: one LB, 2 routers, 2 janusd, minisql, and the rules seeded.
func shippedConfig(rules []bucket.Rule) cluster.Config {
	return cluster.Config{
		Routers:            2,
		QoSServers:         2,
		Mode:               cluster.Gateway,
		LBPolicy:           lb.RoundRobin,
		TableKind:          table.KindSharded,
		SyncInterval:       shippedSync,
		CheckpointInterval: shippedCheckpoint,
		Transport: transport.Config{
			Timeout:   transport.DefaultTimeout,
			Retries:   transport.DefaultRetries,
			MaxLinger: transport.DefaultMaxLinger,
		},
		QoSListeners:  min(runtime.NumCPU(), shippedMaxListeners),
		CodelTarget:   qosserver.DefaultCodelTarget,
		CodelInterval: qosserver.DefaultCodelInterval,
		Audit:         true,
		AuditInterval: shippedAuditInterval,
		Rules:         rules,
	}
}

// boot starts the deployment, preloads every janusd and waits for the
// first real verdict through the LB. It returns the set-up time.
func boot(in Inputs) (*cluster.Cluster, time.Duration, error) {
	start := time.Now()
	c, err := cluster.New(shippedConfig(in.Rules))
	if err != nil {
		return nil, 0, fmt.Errorf("boot: %w", err)
	}
	for _, p := range c.QoS {
		if err := p.Master.Preload(); err != nil {
			c.Close()
			return nil, 0, fmt.Errorf("preload: %w", err)
		}
	}
	cl := newHTTPClient()
	defer cl.CloseIdleConnections()
	url := qosURL(c.LB.Addr())
	for deadline := time.Now().Add(10 * time.Second); ; {
		v := get(cl, url, in.Keys[0])
		if v.err == nil && isReal(v.status) {
			break
		}
		if time.Now().After(deadline) {
			c.Close()
			return nil, 0, fmt.Errorf("boot: no verdict through the LB within 10s (last: %+v)", v)
		}
		time.Sleep(time.Millisecond)
	}
	return c, time.Since(start), nil
}

// clientTimeout bounds one HTTP decision; a request without a verdict by
// then is an error.
const clientTimeout = 2 * time.Second

func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
		Timeout:   clientTimeout,
	}
}

func qosURL(addr string) string {
	return "http://" + addr + wire.HTTPPath + "?" + wire.HTTPKeyParam + "="
}

// verdict is one parsed HTTP admission answer.
type verdict struct {
	allow  bool
	status string
	err    error
}

var knownStatus = func() map[string]bool {
	m := map[string]bool{}
	for s := wire.StatusOK; s <= wire.StatusDegraded; s++ {
		m[s.String()] = true
	}
	return m
}()

func isReal(status string) bool {
	return status == wire.StatusOK.String() || status == wire.StatusDefaultRule.String()
}

// errMalformed marks an answer that arrived but does not parse: a
// correctness failure, not a timeout.
type errMalformed struct{ msg string }

func (e errMalformed) Error() string { return e.msg }

func get(cl *http.Client, url, key string) verdict {
	resp, err := cl.Get(url + key)
	if err != nil {
		return verdict{err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return verdict{err: err}
	}
	status := resp.Header.Get(wire.HTTPStatusHeader)
	if resp.StatusCode != http.StatusOK || !knownStatus[status] {
		return verdict{status: status, err: errMalformed{fmt.Sprintf("HTTP %d, status %q, body %q", resp.StatusCode, status, body)}}
	}
	allow, err := wire.ParseHTTPBody(string(body))
	if err != nil {
		return verdict{status: status, err: errMalformed{err.Error()}}
	}
	return verdict{allow: allow, status: status}
}

// pendingWrite is a rule write not yet visible in its owner's table.
type pendingWrite struct {
	rule bucket.Rule
	done time.Time // when store.Put returned
}

// ruleWriter rewrites probe-key geometry at a fixed rate and times how long
// each write takes to reach the owning janusd's table. It is driven by one
// goroutine at a time.
type ruleWriter struct {
	store  *store.Store
	owners []table.Table
	next   func() bucket.Rule
	every  time.Duration
	tr     *tracer

	due      time.Time
	lastPoll time.Time
	pending  map[string]pendingWrite
	last     map[string]bucket.Rule
	visible  []time.Duration

	writes, errors, superseded int64
}

func newRuleWriter(c *cluster.Cluster, in Inputs, every time.Duration, tr *tracer) *ruleWriter {
	owners := make([]table.Table, len(c.QoS))
	for i, p := range c.QoS {
		owners[i] = p.Master.Table()
	}
	return &ruleWriter{
		store:   c.Store,
		owners:  owners,
		next:    in.probeStream(),
		every:   every,
		tr:      tr,
		pending: map[string]pendingWrite{},
		last:    map[string]bucket.Rule{},
	}
}

func (rw *ruleWriter) owner(key string) table.Table {
	i, err := router.SelectBackend(key, len(rw.owners))
	if err != nil {
		panic(err) // unreachable: owners is never empty
	}
	return rw.owners[i]
}

func (rw *ruleWriter) holds(r bucket.Rule) bool {
	b := rw.owner(r.Key).Get(r.Key)
	return b != nil && b.RefillRate() == r.RefillRate && b.Capacity() == r.Capacity
}

// tick issues the write that is due, if any, and polls pending writes at
// most once a millisecond.
func (rw *ruleWriter) tick(now time.Time) {
	if rw.due.IsZero() {
		rw.due = now
	}
	if !now.Before(rw.due) {
		rw.due = rw.due.Add(rw.every)
		r := rw.next()
		if _, ok := rw.pending[r.Key]; ok {
			rw.superseded++
		}
		sp := rw.tr.begin("store.Put", 0)
		err := rw.store.Put(r)
		rw.tr.end(sp)
		rw.writes++
		if err != nil {
			rw.errors++
		} else {
			rw.pending[r.Key] = pendingWrite{rule: r, done: time.Now()}
			rw.last[r.Key] = r
		}
	}
	if now.Sub(rw.lastPoll) >= time.Millisecond {
		rw.poll(now)
	}
}

func (rw *ruleWriter) poll(now time.Time) {
	rw.lastPoll = now
	for k, p := range rw.pending {
		if rw.holds(p.rule) {
			rw.visible = append(rw.visible, now.Sub(p.done))
			delete(rw.pending, k)
		}
	}
}

// drain polls until every write is visible or the deadline passes.
func (rw *ruleWriter) drain(deadline time.Time) error {
	for len(rw.pending) > 0 {
		now := time.Now()
		if now.After(deadline) {
			return fmt.Errorf("%d rule writes not visible in their owner's table by the drain deadline", len(rw.pending))
		}
		rw.poll(now)
		time.Sleep(time.Millisecond)
	}
	return nil
}

// checkFinal verifies every probe key's table geometry equals its last
// write.
func (rw *ruleWriter) checkFinal() error {
	bad := 0
	for _, r := range rw.last {
		if !rw.holds(r) {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d probe keys do not hold their last written geometry", bad, len(rw.last))
	}
	return nil
}

// sample is one decision request: when it completed, counted from the
// window start, how long it took, and whether a verdict arrived.
type sample struct {
	at, lat time.Duration
	ok      bool
}

// clientStats is one decision client's tally over the window.
type clientStats struct {
	samples                            []sample
	attempted, answered, real, errored int64
	malformed                          []string
}

// counters is a snapshot of the deployment's public counters.
type counters struct {
	decisions, degraded, dropped int64
	routerReqs, defaultReplies   int64
	attempts, timeouts           int64
	lbBackendErrors              int64
	cpu                          time.Duration
	numGC                        uint32
	pauses                       [256]uint64
}

func snapshot(c *cluster.Cluster) counters {
	var s counters
	for _, p := range c.QoS {
		st := p.Master.Stats()
		s.decisions += st.Decisions
		s.degraded += st.Degraded
		s.dropped += st.Dropped
	}
	for _, r := range c.Routers {
		st := r.Stats()
		s.routerReqs += st.Requests
		s.defaultReplies += st.DefaultReplies
		ts := transport.NewStats(r.Registry())
		s.attempts += ts.Attempts.Value()
		s.timeouts += ts.Timeouts.Value()
	}
	s.lbBackendErrors = c.LB.Stats().BackendErrors
	s.cpu = processCPU()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.numGC = ms.NumGC
	s.pauses = ms.PauseNs
	return s
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// subWindows is how many equal parts the window is cut into for the
// per-part throughput, p50 and CPU series in meta. The reported metrics
// cover the whole window.
const subWindows = 10

// liveResult is the outcome of one closed-loop window.
type liveResult struct {
	window  time.Duration
	clients []clientStats
	snaps   []counters // at each sub-window boundary, window start first
	rules   *ruleWriter
}

func (r liveResult) before() counters { return r.snaps[0] }
func (r liveResult) after() counters  { return r.snaps[len(r.snaps)-1] }

// runLive drives the closed loop with the rule writer for the window, then
// drains the rule writer.
func runLive(c *cluster.Cluster, w Workload, in Inputs, window time.Duration, tr *tracer) (liveResult, error) {
	rw := newRuleWriter(c, in, w.WriteEvery, tr)
	runtime.GC()
	var snaps []counters
	clients, err := loop(c, w, in, window, rw, tr, func() { snaps = append(snaps, snapshot(c)) })
	if err != nil {
		return liveResult{}, err
	}
	if err := rw.drain(time.Now().Add(4*shippedSync + 60*time.Second)); err != nil {
		return liveResult{}, err
	}
	return liveResult{window: window, clients: clients, snaps: snaps, rules: rw}, nil
}

// loop runs the decision clients (and the rule writer, when rw is set) for
// d and returns each client's tally. mark, when set, runs at the start and
// at the end of each of the subWindows parts.
func loop(c *cluster.Cluster, w Workload, in Inputs, d time.Duration, rw *ruleWriter, tr *tracer, mark func()) ([]clientStats, error) {
	n := w.decisionClients()
	stats := make([]clientStats, n)
	var stop atomic.Bool
	var wg sync.WaitGroup
	url := qosURL(c.LB.Addr())
	root := tr.begin("window", 0)
	if mark != nil {
		mark()
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		hostRules := rw != nil && !w.DedicatedRules && i == 0
		next := in.keyStream(w, i)
		st := &stats[i]
		st.samples = make([]sample, 0, 1<<16)
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newHTTPClient()
			defer cl.CloseIdleConnections()
			for !stop.Load() {
				key := next()
				sp := tr.begin("lb.GET /qos", root)
				t0 := time.Now()
				v := get(cl, url, key)
				t1 := time.Now()
				tr.end(sp)
				st.attempted++
				st.samples = append(st.samples, sample{at: t1.Sub(start), lat: t1.Sub(t0), ok: v.err == nil})
				switch {
				case v.err == nil:
					st.answered++
					if isReal(v.status) {
						st.real++
					}
				case isMalformed(v.err):
					st.answered++
					if len(st.malformed) < 5 {
						st.malformed = append(st.malformed, v.err.Error())
					}
				default:
					st.errored++
				}
				if hostRules {
					rw.tick(t1)
				}
			}
		}()
	}
	if rw != nil && w.DedicatedRules {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				rw.tick(time.Now())
				time.Sleep(time.Millisecond)
			}
		}()
	}
	for k := 1; k <= subWindows; k++ {
		time.Sleep(time.Until(start.Add(d * time.Duration(k) / subWindows)))
		if mark != nil {
			mark()
		}
	}
	stop.Store(true)
	wg.Wait()
	tr.end(root)
	for _, st := range stats {
		if len(st.malformed) > 0 {
			return stats, fmt.Errorf("malformed HTTP answers, e.g. %s", st.malformed[0])
		}
	}
	return stats, nil
}

func isMalformed(err error) bool {
	var m errMalformed
	return errors.As(err, &m)
}

// checkAudit requires every janusd's admission audit to read "ok".
func checkAudit(c *cluster.Cluster) error {
	for i, p := range c.QoS {
		if rep := p.Master.AuditReport(); rep.Verdict != "ok" {
			return fmt.Errorf("janusd %d audit verdict %q (%d buckets over budget)", i, rep.Verdict, len(rep.Overspent))
		}
	}
	return nil
}

// latencies returns every request's latency, sorted, and for each
// sub-window its sorted latencies and the number of answers.
func (r liveResult) latencies() (all []time.Duration, parts [][]time.Duration, answered []int64) {
	sub := r.window / subWindows
	parts = make([][]time.Duration, subWindows)
	answered = make([]int64, subWindows)
	for _, st := range r.clients {
		for _, s := range st.samples {
			k := min(int(s.at/sub), subWindows-1)
			parts[k] = append(parts[k], s.lat)
			all = append(all, s.lat)
			if s.ok {
				answered[k]++
			}
		}
	}
	for _, p := range parts {
		sortDurations(p)
	}
	sortDurations(all)
	return all, parts, answered
}

// endToEnd turns a live window into the user-visible metrics, each taken
// over the whole window. The window spans whole sync and checkpoint
// periods, so their work is in every figure.
func (r liveResult) endToEnd(m metricSet) {
	all, _, _ := r.latencies()
	var attempted, answered, real int64
	for _, st := range r.clients {
		attempted += st.attempted
		answered += st.answered
		real += st.real
	}
	m.add("throughput_rps", r.throughput())
	m.add("latency_p50_us", us(quantile(all, 0.5)))
	m.add("latency_p90_us", us(quantile(all, 0.9)))
	m.add("cpu_us_per_request", us(r.after().cpu-r.before().cpu)/float64(max(answered, 1)))
	m.add("real_verdict_frac", float64(real)/float64(max(attempted, 1)))
	m.add("decisions_per_request", float64(r.after().decisions-r.before().decisions)/float64(max(answered, 1)))
	vis := append([]time.Duration(nil), r.rules.visible...)
	sortDurations(vis)
	m.add("rule_visible_p50_ms", ms(quantile(vis, 0.5)))
	m.add("rule_visible_p99_ms", ms(quantile(vis, 0.99)))
}

// throughput is the window's answers per second.
func (r liveResult) throughput() float64 {
	var answered int64
	for _, st := range r.clients {
		answered += st.answered
	}
	return float64(answered) / r.window.Seconds()
}

// subSeries returns throughput, p50 and CPU per answer for each
// sub-window; they show where in the window a slow run lost its time.
func (r liveResult) subSeries() (tput, p50, cpu []float64) {
	_, parts, answered := r.latencies()
	sub := (r.window / subWindows).Seconds()
	for k, lat := range parts {
		tput = append(tput, float64(answered[k])/sub)
		p50 = append(p50, us(quantile(lat, 0.5)))
		cpu = append(cpu, us(r.snaps[k+1].cpu-r.snaps[k].cpu)/float64(max(answered[k], 1)))
	}
	return tput, p50, cpu
}

// tails returns the whole window's p99 and p999 latency in µs. They come
// from rare events (a stall, a retry storm, a sync pass, a GC pause) and
// move too much from run to run on a shared 2-vCPU host to gate a change,
// so they are reported but carry no bound.
func (r liveResult) tails() (p99, p999 float64) {
	all, _, _ := r.latencies()
	return us(quantile(all, 0.99)), us(quantile(all, 0.999))
}

func sortDurations(d []time.Duration) { sort.Slice(d, func(i, j int) bool { return d[i] < d[j] }) }

func (r liveResult) totals() (attempted, failed int64) {
	for _, st := range r.clients {
		attempted += st.attempted
		failed += st.errored
	}
	return attempted + r.rules.writes, failed + r.rules.errors
}

// quantile returns the nearest-rank q-quantile of sorted values.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
