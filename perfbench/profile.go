package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// CPU share per tier from a runtime/pprof CPU profile. The profile is a
// gzipped protobuf (github.com/google/pprof/proto/profile.proto); only the
// fields needed to name each sample's frames are decoded.

// shareGroups are the cpu_share.* names, in report order.
var shareGroups = []string{"lb", "router", "transport", "qosserver", "minisql", "net_http", "runtime_gc", "syscall", "bench_client", "other"}

// tierOf maps a repro package to the tier its CPU is charged to. Helper
// packages (wire, metrics, table, bucket, audit, ...) are charged to the
// tier that called them.
var tierOf = map[string]string{
	"repro/internal/lb":        "lb",
	"repro/internal/router":    "router",
	"repro/internal/transport": "transport",
	"repro/internal/qosserver": "qosserver",
	"repro/internal/minisql":   "minisql",
	"repro/internal/store":     "minisql",
	"main":                     "bench_client",
}

var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination"}

// classify charges one stack (leaf first) to a group: GC work first, then a
// leaf in the kernel-call packages, then the innermost tier frame, then
// net/http, else other.
func classify(stack []string) string {
	for _, fn := range stack {
		for _, g := range gcRoots {
			if strings.HasPrefix(fn, g) {
				return "runtime_gc"
			}
		}
	}
	if len(stack) > 0 {
		switch funcPackage(stack[0]) {
		case "syscall", "internal/runtime/syscall", "runtime/internal/syscall":
			return "syscall"
		}
	}
	for _, fn := range stack {
		if t, ok := tierOf[funcPackage(fn)]; ok {
			return t
		}
	}
	for _, fn := range stack {
		if funcPackage(fn) == "net/http" {
			return "net_http"
		}
	}
	return "other"
}

// funcPackage returns the import path of a symbol such as
// "repro/internal/lb.(*LB).proxy" or "net/http.(*conn).serve".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// cpuShares decodes a CPU profile and returns each group's share of the
// sampled CPU time.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	funcName := map[uint64]string{}
	for id, nameIdx := range p.funcs {
		if nameIdx < uint64(len(p.strings)) {
			funcName[id] = p.strings[nameIdx]
		}
	}
	byGroup := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fid := range p.locs[loc] {
				stack = append(stack, funcName[fid])
			}
		}
		v := s.values[len(s.values)-1]
		byGroup[classify(stack)] += v
		total += v
	}
	out := map[string]float64{}
	for _, g := range shareGroups {
		if total > 0 {
			out[g] = float64(byGroup[g]) / float64(total)
		} else {
			out[g] = 0
		}
	}
	return out, nil
}

type profSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	samples []profSample
	locs    map[uint64][]uint64 // location id -> function ids, leaf first
	funcs   map[uint64]uint64   // function id -> name string index
	strings []string
}

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]uint64{}}
	err := eachField(b, func(num int, wt int, v uint64, data []byte) error {
		switch num {
		case 2: // sample
			var s profSample
			err := eachField(data, func(num, wt int, v uint64, data []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, wt, v, data)
				case 2:
					for _, u := range appendPacked(nil, wt, v, data) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(s.values) > 0 {
				p.samples = append(p.samples, s)
			}
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(data, func(num, wt int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(data, func(num, wt int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locs[id] = fns
		case 5: // function
			var id, name uint64
			err := eachField(data, func(num, wt int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcs[id] = name
		case 6: // string table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

// appendPacked appends a repeated varint field that may be packed (wire
// type 2) or not (wire type 0).
func appendPacked(dst []uint64, wt int, v uint64, data []byte) []uint64 {
	if wt == 0 {
		return append(dst, v)
	}
	for len(data) > 0 {
		u, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		data = data[n:]
	}
	return dst
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, passing varint values in v and
// length-delimited payloads in data.
func eachField(b []byte, fn func(num, wt int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wt)
		}
		if err := fn(num, wt, v, data); err != nil {
			return err
		}
	}
	return nil
}
