package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/lb"
	"repro/internal/lease"
	"repro/internal/qosserver"
	"repro/internal/table"
	"repro/internal/transport"
)

// flagDefaults parses a daemon's main.go and returns each flag's default
// value, evaluated, and its usage text.
func flagDefaults(t *testing.T, path string) (defaults map[string]any, usage map[string]string) {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defaults, usage = map[string]any{}, map[string]string{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 3 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.X.(*ast.Ident).Name != "flag" {
			return true
		}
		name, err1 := strconv.Unquote(call.Args[0].(*ast.BasicLit).Value)
		help, err2 := strconv.Unquote(call.Args[2].(*ast.BasicLit).Value)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: flag call with non-literal name or usage", path)
		}
		defaults[name] = evalDefault(t, call.Args[1])
		usage[name] = help
		return true
	})
	return defaults, usage
}

// named are the package-level constants the daemons use as flag defaults.
var named = map[string]any{
	"time.Second":                    int64(time.Second),
	"time.Millisecond":               int64(time.Millisecond),
	"time.Microsecond":               int64(time.Microsecond),
	"transport.DefaultTimeout":       int64(transport.DefaultTimeout),
	"transport.DefaultRetries":       int64(transport.DefaultRetries),
	"transport.DefaultMaxLinger":     int64(transport.DefaultMaxLinger),
	"qosserver.DefaultCodelTarget":   int64(qosserver.DefaultCodelTarget),
	"qosserver.DefaultCodelInterval": int64(qosserver.DefaultCodelInterval),
	"lease.DefaultTTL":               int64(lease.DefaultTTL),
	"lease.DefaultHotRate":           float64(lease.DefaultHotRate),
}

func evalDefault(t *testing.T, e ast.Expr) any {
	t.Helper()
	switch e := e.(type) {
	case *ast.BasicLit:
		switch e.Kind {
		case token.INT:
			v, _ := strconv.ParseInt(e.Value, 0, 64)
			return v
		case token.FLOAT:
			v, _ := strconv.ParseFloat(e.Value, 64)
			return v
		case token.STRING:
			v, _ := strconv.Unquote(e.Value)
			return v
		}
	case *ast.Ident:
		switch e.Name {
		case "true":
			return true
		case "false":
			return false
		}
	case *ast.SelectorExpr:
		if v, ok := named[e.X.(*ast.Ident).Name+"."+e.Sel.Name]; ok {
			return v
		}
	case *ast.BinaryExpr:
		x, y := evalDefault(t, e.X), evalDefault(t, e.Y)
		xi, ok1 := x.(int64)
		yi, ok2 := y.(int64)
		if e.Op == token.MUL && ok1 && ok2 {
			return xi * yi
		}
	}
	t.Fatalf("cannot evaluate flag default %T", e)
	return nil
}

// TestShippedDefaults fails when the benchmark's deployment drifts from the
// flag defaults of cmd/janusd, cmd/janus-router and cmd/janus-lb, or from
// the transport and CoDel constants those flags name.
func TestShippedDefaults(t *testing.T) {
	cfg := shippedConfig(nil)
	if cfg.Transport.Timeout != transport.DefaultTimeout || cfg.Transport.Retries != transport.DefaultRetries {
		t.Errorf("transport %v x %d, shipped %v x %d", cfg.Transport.Timeout, cfg.Transport.Retries, transport.DefaultTimeout, transport.DefaultRetries)
	}
	if cfg.CodelTarget != qosserver.DefaultCodelTarget || cfg.CodelInterval != qosserver.DefaultCodelInterval {
		t.Errorf("codel %v/%v, shipped %v/%v", cfg.CodelTarget, cfg.CodelInterval, qosserver.DefaultCodelTarget, qosserver.DefaultCodelInterval)
	}

	janusd, janusdUsage := flagDefaults(t, "../cmd/janusd/main.go")
	router, _ := flagDefaults(t, "../cmd/janus-router/main.go")
	lbd, _ := flagDefaults(t, "../cmd/janus-lb/main.go")
	dur := func(d time.Duration) int64 { return int64(d) }
	checks := []struct {
		daemon, flag string
		shipped      map[string]any
		bench        any
	}{
		{"janusd", "codel-target", janusd, dur(cfg.CodelTarget)},
		{"janusd", "codel-interval", janusd, dur(cfg.CodelInterval)},
		{"janusd", "sync", janusd, dur(cfg.SyncInterval)},
		{"janusd", "checkpoint", janusd, dur(cfg.CheckpointInterval)},
		{"janusd", "refill", janusd, dur(cfg.RefillInterval)},
		{"janusd", "audit", janusd, cfg.Audit},
		{"janusd", "audit-interval", janusd, dur(cfg.AuditInterval)},
		{"janusd", "table", janusd, string(cfg.TableKind)},
		{"janusd", "workers", janusd, int64(cfg.QoSWorkers)},
		{"janusd", "default-rate", janusd, int64(cfg.DefaultRule.RefillRate)},
		{"janusd", "default-capacity", janusd, int64(cfg.DefaultRule.Capacity)},
		{"janusd", "lease-fraction", janusd, int64(0)}, // leasing off, as cfg.Lease is false
		{"janus-router", "timeout", router, dur(cfg.Transport.Timeout)},
		{"janus-router", "retries", router, int64(cfg.Transport.Retries)},
		{"janus-router", "max-batch", router, int64(cfg.Transport.MaxBatch)},
		{"janus-router", "max-linger", router, dur(cfg.Transport.MaxLinger)},
		{"janus-router", "default-reply", router, cfg.DefaultReply},
		{"janus-router", "lease", router, cfg.Lease},
		{"janus-lb", "policy", lbd, string(cfg.LBPolicy)},
	}
	for _, c := range checks {
		got, ok := c.shipped[c.flag]
		if !ok {
			t.Errorf("%s has no -%s flag", c.daemon, c.flag)
			continue
		}
		if got != c.bench {
			t.Errorf("%s -%s ships %v (%T), benchmark uses %v (%T)", c.daemon, c.flag, got, got, c.bench, c.bench)
		}
	}
	// -listeners 0 means "#CPUs capped at 8"; the benchmark resolves it.
	if janusd["listeners"] != int64(0) || !strings.Contains(janusdUsage["listeners"], "capped at 8") || shippedMaxListeners != 8 {
		t.Errorf("janusd -listeners default changed: %v %q", janusd["listeners"], janusdUsage["listeners"])
	}
	if cfg.Lease || cfg.Picker != "" || cfg.TableKind != table.KindSharded || cfg.LBPolicy != lb.RoundRobin {
		t.Errorf("lease/picker/table/policy drifted: %v %q %q %q", cfg.Lease, cfg.Picker, cfg.TableKind, cfg.LBPolicy)
	}
	if router["picker"] != "crc32" {
		t.Errorf("janus-router -picker ships %v; the benchmark uses cluster's crc32 default", router["picker"])
	}
}
