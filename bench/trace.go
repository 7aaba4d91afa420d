package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one batch or one
// query share Trace; Parent is the id of the span that caused this one (0 for
// a root). Times are nanoseconds since the tracer started.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Trace  int32  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer records spans into a buffer allocated up front, so recording one is
// an atomic increment and a few stores: no lock, no allocation, nothing that
// would put the tracer itself on the profile it is taking. Spans past the
// capacity are counted as dropped, never silently lost. A nil tracer records
// nothing, which is how the untraced runs execute the same client code.
type tracer struct {
	t0      time.Time
	buf     []span
	next    atomic.Int64
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), buf: make([]span, capacity)}
}

// begin opens a span and returns its id (0 when untraced or dropped; end(0)
// is a no-op).
func (t *tracer) begin(name string, parent, trace int32) int32 {
	if t == nil {
		return 0
	}
	i := t.next.Add(1)
	if int(i) > len(t.buf) {
		t.dropped.Add(1)
		return 0
	}
	t.buf[i-1] = span{ID: int32(i), Parent: parent, Trace: trace, Name: name, Start: int64(time.Since(t.t0))}
	return int32(i)
}

// add records a span whose start and end the caller measured itself.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	i := t.next.Add(1)
	if int(i) > len(t.buf) {
		t.dropped.Add(1)
		return
	}
	s.ID = int32(i)
	t.buf[i-1] = s
}

func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	t.buf[id-1].End = int64(time.Since(t.t0))
}

// spans returns the recorded spans; call only after every recording goroutine
// has stopped.
func (t *tracer) spans() []span {
	n := int(t.next.Load())
	if n > len(t.buf) {
		n = len(t.buf)
	}
	return t.buf[:n]
}

// selfTimes returns, per span id, the span's duration minus the part of its
// own interval that its child spans cover. Children may overlap each other
// (their union is subtracted once) and may outlive the parent — a refresh
// caused by an ingest request keeps running after the request was answered —
// in which case only the part inside the parent's interval counts.
func selfTimes(spans []span) map[int32]int64 {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// durationsMS collects the durations of every span called name.
func durationsMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// writeTrace stores the spans of one workload as JSON: one object per span,
// ordered by start time, so a reader can follow one trace id from the client
// root down to the engine call.
func writeTrace(path string, spans []span) error {
	ordered := append([]span(nil), spans...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Start < ordered[j].Start })
	b, err := json.Marshal(ordered)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
