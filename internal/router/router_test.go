package router

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/bucket"
	"repro/internal/membership"
	"repro/internal/minisql"
	"repro/internal/qosserver"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wire"
)

var tcfg = transport.Config{Timeout: 100 * time.Millisecond, Retries: 5}

func newBackend(t *testing.T, rules ...bucket.Rule) *qosserver.Server {
	t.Helper()
	db := store.New(minisql.NewEngine())
	if err := db.Init(); err != nil {
		t.Fatal(err)
	}
	if err := db.PutAll(rules); err != nil {
		t.Fatal(err)
	}
	s, err := qosserver.New(qosserver.Config{Addr: "127.0.0.1:0", Store: db})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func newRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.Transport.Timeout == 0 {
		cfg.Transport = tcfg
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func httpCheck(t *testing.T, r *Router, key string) (bool, wire.Status) {
	t.Helper()
	resp, err := http.Get("http://" + r.Addr() + wire.FormatHTTPQuery(wire.Request{Key: key, Cost: 1}))
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	allow, err := wire.ParseHTTPBody(string(body))
	if err != nil {
		t.Fatalf("body %q: %v", body, err)
	}
	var status wire.Status
	switch resp.Header.Get(wire.HTTPStatusHeader) {
	case "ok":
		status = wire.StatusOK
	case "default-rule":
		status = wire.StatusDefaultRule
	case "default-reply":
		status = wire.StatusDefaultReply
	case "error":
		status = wire.StatusError
	}
	return allow, status
}

func TestSelectBackendDeterministic(t *testing.T) {
	f := func(key string, n uint8) bool {
		nn := int(n%20) + 1
		i, err1 := SelectBackend(key, nn)
		j, err2 := SelectBackend(key, nn)
		return err1 == nil && err2 == nil && i == j && i >= 0 && i < nn
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectBackendMatchesPaperFormula(t *testing.T) {
	// seed = CRC32(key); n = mod(seed, N)
	if got, err := SelectBackend("hello", 7); err != nil || got != int(uint32(0x3610a686)%7) {
		t.Fatalf("got %d err %v", got, err)
	}
}

func TestEndToEndAdmission(t *testing.T) {
	qs := newBackend(t, bucket.Rule{Key: "alice", RefillRate: 0, Capacity: 3, Credit: 3})
	r := newRouter(t, Config{Backends: []string{qs.Addr()}})
	allowed := 0
	for i := 0; i < 5; i++ {
		ok, status := httpCheck(t, r, "alice")
		if status != wire.StatusOK {
			t.Fatalf("status = %v", status)
		}
		if ok {
			allowed++
		}
	}
	if allowed != 3 {
		t.Fatalf("allowed = %d, want 3", allowed)
	}
	if st := r.Stats(); st.Requests != 5 || st.Timeouts != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPartitioningAcrossBackends(t *testing.T) {
	// Two backends; verify each key consistently lands on its CRC32 home.
	qs0 := newBackend(t)
	qs1 := newBackend(t)
	r := newRouter(t, Config{Backends: []string{qs0.Addr(), qs1.Addr()}})
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for _, k := range keys {
		httpCheck(t, r, k)
	}
	s0, s1 := qs0.Stats(), qs1.Stats()
	if s0.Decisions+s1.Decisions != int64(len(keys)) {
		t.Fatalf("decisions: %d + %d", s0.Decisions, s1.Decisions)
	}
	for _, k := range keys {
		want, _ := SelectBackend(k, 2)
		d0 := qs0.Stats().Decisions
		httpCheck(t, r, k)
		gotZero := qs0.Stats().Decisions > d0
		if gotZero != (want == 0) {
			t.Fatalf("key %q routed to wrong backend", k)
		}
	}
}

func TestSameKeySameBackendAcrossRouters(t *testing.T) {
	qs0 := newBackend(t)
	qs1 := newBackend(t)
	backends := []string{qs0.Addr(), qs1.Addr()}
	r1 := newRouter(t, Config{Backends: backends})
	r2 := newRouter(t, Config{Backends: backends})
	d0 := qs0.Stats().Received
	httpCheck(t, r1, "some-key")
	httpCheck(t, r2, "some-key")
	viaZero := qs0.Stats().Received - d0
	if viaZero != 0 && viaZero != 2 {
		t.Fatalf("key split across backends: %d of 2 on backend 0", viaZero)
	}
}

func TestDefaultReplyOnBackendDown(t *testing.T) {
	qs := newBackend(t)
	addr := qs.Addr()
	qs.Close()
	fast := transport.Config{Timeout: 2 * time.Millisecond, Retries: 2}

	deny := newRouter(t, Config{Backends: []string{addr}, Transport: fast, DefaultReply: false})
	ok, status := httpCheck(t, deny, "k")
	if ok || status != wire.StatusDefaultReply {
		t.Fatalf("deny default: ok=%v status=%v", ok, status)
	}
	allow := newRouter(t, Config{Backends: []string{addr}, Transport: fast, DefaultReply: true})
	ok, status = httpCheck(t, allow, "k")
	if !ok || status != wire.StatusDefaultReply {
		t.Fatalf("allow default: ok=%v status=%v", ok, status)
	}
	st := deny.Stats()
	if st.Timeouts != 1 || st.DefaultReplies != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBadRequestRejected(t *testing.T) {
	qs := newBackend(t)
	r := newRouter(t, Config{Backends: []string{qs.Addr()}})
	resp, err := http.Get("http://" + r.Addr() + wire.HTTPPath) // no key
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if r.Stats().BadRequests != 1 {
		t.Fatalf("stats = %+v", r.Stats())
	}
}

func TestHealthz(t *testing.T) {
	qs := newBackend(t)
	r := newRouter(t, Config{Backends: []string{qs.Addr()}})
	resp, err := http.Get("http://" + r.Addr() + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp, err)
	}
	resp.Body.Close()
}

func TestNoBackendsRejected(t *testing.T) {
	if _, err := New(Config{Addr: "127.0.0.1:0"}); !errors.Is(err, ErrNoBackends) {
		t.Fatalf("New with no backends: err = %v, want ErrNoBackends", err)
	}
}

func TestSelectBackendZeroServersTypedError(t *testing.T) {
	for _, n := range []int{0, -3} {
		if _, err := SelectBackend("k", n); !errors.Is(err, ErrNoBackends) {
			t.Fatalf("SelectBackend(k, %d): err = %v, want ErrNoBackends", n, err)
		}
	}
}

func TestUpdateViewRejectsEmptyAndStale(t *testing.T) {
	qs := newBackend(t)
	r := newRouter(t, Config{Backends: []string{qs.Addr()}})
	if err := r.UpdateView(membership.View{Epoch: 5}); !errors.Is(err, ErrNoBackends) {
		t.Fatalf("empty view accepted: %v", err)
	}
	if err := r.UpdateView(membership.View{Epoch: 2, Backends: []string{qs.Addr(), "x"}}); err != nil {
		t.Fatal(err)
	}
	// Stale (same or older epoch) publications are ignored.
	if err := r.UpdateView(membership.View{Epoch: 2, Backends: []string{"only-x"}}); err != nil {
		t.Fatal(err)
	}
	if v := r.View(); v.Epoch != 2 || len(v.Backends) != 2 {
		t.Fatalf("view = %+v", v)
	}
	if st := r.Stats(); st.ViewSwaps != 1 || st.Epoch != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestUpdateViewHotSwap grows the backend set mid-traffic with the jump
// picker: traffic keeps flowing, no request sees a default reply, and the
// recorded remap fraction matches jump hash's ~K/N bound.
func TestUpdateViewHotSwap(t *testing.T) {
	generous := func() *qosserver.Server {
		s, err := qosserver.New(qosserver.Config{
			Addr:        "127.0.0.1:0",
			DefaultRule: bucket.Rule{RefillRate: 1e9, Capacity: 1e9, Credit: 1e9},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	qs0 := generous()
	qs1 := generous()
	r := newRouter(t, Config{
		Backends: []string{qs0.Addr()},
		Picker:   membership.JumpHash{},
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ok, status := httpCheck(t, r, fmt.Sprintf("key-%d-%d", g, i%32))
				if !ok || status == wire.StatusDefaultReply {
					errs <- fmt.Errorf("ok=%v status=%v during swap", ok, status)
					return
				}
			}
		}(g)
	}
	time.Sleep(20 * time.Millisecond)
	if err := r.UpdateView(membership.View{Epoch: 1, Backends: []string{qs0.Addr(), qs1.Addr()}}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.DefaultReplies != 0 {
		t.Fatalf("default replies during hot swap: %+v", st)
	}
	if st.Epoch != 1 || st.ViewSwaps != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.LastRemapFraction <= 0 || st.LastRemapFraction > 0.6 {
		t.Fatalf("remap fraction = %v, want ~0.5 for 1→2 backends", st.LastRemapFraction)
	}
	if qs1.Stats().Decisions == 0 {
		t.Fatal("new backend received no traffic after swap")
	}
}

// nameResolver maps names to addresses and counts resolutions.
type nameResolver struct {
	mu    sync.Mutex
	table map[string]string
	calls int
}

func (r *nameResolver) ResolveOne(name string) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls++
	a, ok := r.table[name]
	if !ok {
		return "", fmt.Errorf("no such name %q", name)
	}
	return a, nil
}

func TestResolverFailoverOnTimeout(t *testing.T) {
	// Master dies; the DNS name now points at the slave. After one timeout
	// the router re-resolves and recovers.
	master := newBackend(t, bucket.Rule{Key: "k", RefillRate: 1000, Capacity: 1000, Credit: 1000})
	slave := newBackend(t, bucket.Rule{Key: "k", RefillRate: 1000, Capacity: 1000, Credit: 1000})
	res := &nameResolver{table: map[string]string{"qos-1.janus": master.Addr()}}
	r := newRouter(t, Config{
		Backends:  []string{"qos-1.janus"},
		Resolver:  res,
		Transport: transport.Config{Timeout: 5 * time.Millisecond, Retries: 2},
	})
	if ok, _ := httpCheck(t, r, "k"); !ok {
		t.Fatal("initial request denied")
	}
	master.Close()
	res.mu.Lock()
	res.table["qos-1.janus"] = slave.Addr()
	res.mu.Unlock()
	// First request times out (default reply), then recovery.
	ok, status := httpCheck(t, r, "k")
	if ok || status != wire.StatusDefaultReply {
		t.Fatalf("during failover: ok=%v status=%v", ok, status)
	}
	ok, status = httpCheck(t, r, "k")
	if !ok || status != wire.StatusOK {
		t.Fatalf("after failover: ok=%v status=%v", ok, status)
	}
	if r.Stats().Redials == 0 {
		t.Fatal("no redial counted")
	}
}

// TestStaleInvalidateKeepsFreshClient: two exchanges on client A time out;
// the first invalidation drops A and a request dials B; the second, late
// invalidation of A must leave B open for the exchanges in flight on it.
func TestStaleInvalidateKeepsFreshClient(t *testing.T) {
	srv, err := transport.NewServer("127.0.0.1:0", func(req wire.Request) wire.Response {
		return wire.Response{ID: req.ID, Allow: true, Status: wire.StatusOK}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	b := &backend{name: srv.Addr(), tcfg: tcfg}
	t.Cleanup(b.close)
	a, err := b.getClient()
	if err != nil {
		t.Fatal(err)
	}
	if !b.invalidate(a) {
		t.Fatal("invalidating the cached client reported no drop")
	}
	fresh, err := b.getClient()
	if err != nil {
		t.Fatal(err)
	}
	if fresh == a {
		t.Fatal("getClient returned the invalidated client")
	}
	if b.invalidate(a) {
		t.Fatal("stale invalidate dropped the fresh client")
	}
	if resp, err := fresh.Do(wire.Request{Key: "k", Cost: 1}); err != nil || !resp.Allow {
		t.Fatalf("exchange on the fresh client after a stale invalidate: resp=%+v err=%v", resp, err)
	}
}

func TestConcurrentHTTPClients(t *testing.T) {
	qs := newBackend(t, bucket.Rule{Key: "k", RefillRate: 1e9, Capacity: 1e9, Credit: 1e9})
	r := newRouter(t, Config{Backends: []string{qs.Addr()}})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{}
			for i := 0; i < 50; i++ {
				resp, err := client.Get("http://" + r.Addr() + wire.FormatHTTPQuery(wire.Request{Key: "k", Cost: 1}))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if r.Stats().Requests != 400 {
		t.Fatalf("requests = %d", r.Stats().Requests)
	}
	if r.Latency().Count() != 400 {
		t.Fatalf("latency count = %d", r.Latency().Count())
	}
}

func TestKeyPressureUniformity(t *testing.T) {
	// Small-scale version of Fig 6: sequential keys across 20 partitions
	// should distribute within a tight band around 5%.
	const n = 20
	const keys = 100000
	counts := make([]int, n)
	for i := 0; i < keys; i++ {
		idx, err := SelectBackend(fmt.Sprintf("%d", 1500000001+i), n)
		if err != nil {
			t.Fatal(err)
		}
		counts[idx]++
	}
	for i, c := range counts {
		pct := float64(c) / keys * 100
		if pct < 4.0 || pct > 6.0 {
			t.Errorf("partition %d pressure = %.3f%%, outside [4,6]", i, pct)
		}
	}
}
