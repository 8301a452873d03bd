package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer. IDs start at 1; a
// request's span ID doubles as its request id, and Parent 0 marks a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced run calls the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<17)} }

func (t *tracer) begin(name string, parent int64) int64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans)) + 1, Parent: parent, Name: name, Start: now})
	id := int64(len(t.spans))
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// write stores the spans as gzipped JSON lines under dir and returns the
// path.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return "", fmt.Errorf("spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("spans: %w", err)
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return "", fmt.Errorf("spans: %w", err)
	}
	return path, f.Close()
}
