package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public entry point.  Spans of one operation share a trace id; a
// child names its parent by id (0 = root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run
// ends.  A nil tracer is the untraced mode: begin returns a no-op
// handle and reads no clock.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

type spanKey struct{}

// handle is an open span.  The zero handle (untraced) ends as a no-op.
type handle struct {
	t   *tracer
	idx int
}

// begin opens a span named name under the context's current span and
// returns a context whose later spans nest under it.
func (t *tracer) begin(ctx context.Context, name string) (context.Context, handle) {
	if t == nil {
		return ctx, handle{}
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := span{ID: len(t.spans) + 1, Name: name, Start: now}
	if p, ok := ctx.Value(spanKey{}).(int); ok {
		sp.Parent = p
		sp.Trace = t.spans[p-1].Trace
	} else {
		sp.Trace = sp.ID
	}
	t.spans = append(t.spans, sp)
	return context.WithValue(ctx, spanKey{}, sp.ID), handle{t: t, idx: sp.ID - 1}
}

func (h handle) end() {
	if h.t == nil {
		return
	}
	now := time.Since(h.t.epoch).Nanoseconds()
	h.t.mu.Lock()
	h.t.spans[h.idx].End = now
	h.t.mu.Unlock()
}

// add records a finished span from timestamps taken elsewhere (the
// server's job timestamps), as a child of the context's current span.
func (t *tracer) add(ctx context.Context, name string, start, end time.Time) {
	if t == nil {
		return
	}
	_, h := t.begin(ctx, name)
	t.mu.Lock()
	t.spans[h.idx].Start = start.Sub(t.epoch).Nanoseconds()
	t.spans[h.idx].End = end.Sub(t.epoch).Nanoseconds()
	t.mu.Unlock()
}

// mark returns the current span count: spans recorded after it belong
// to a later phase.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// layerTimes sums, per span name, the self time of the spans recorded
// between two marks: each span's duration minus the part of its
// interval that its children cover.  It also returns the longest single
// span per name.
func (t *tracer) layerTimes(from, to int) (self, longest map[string]time.Duration) {
	self, longest = map[string]time.Duration{}, map[string]time.Duration{}
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][]span{}
	for _, s := range t.spans[from:to] {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for _, s := range t.spans[from:to] {
		d := time.Duration(s.End - s.Start)
		self[s.Name] += d - time.Duration(covered(s, kids[s.ID]))
		if d > longest[s.Name] {
			longest[s.Name] = d
		}
	}
	return
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curS, curE int64
	open := false
	for _, k := range kids {
		s, e := max(k.Start, p.Start), min(k.End, p.End)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// write saves every span as JSON under dir.
func (t *tracer) write(dir, name string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
