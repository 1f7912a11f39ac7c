package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the bench's side of
// the boundary. Start and End count from the recorder's epoch.
type span struct {
	ID     int
	Parent int // -1 for a root
	Name   string
	// Cell is the identifier shared by every span of one cell, figure or
	// request.
	Cell       string
	Start, End time.Duration
	Attrs      map[string]any
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil *recorder is
// tracing switched off: every method is a no-op, so traced and untraced
// passes share their code.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) begin(parent int, name, cell string) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Name: name, Cell: cell, Start: now, End: now})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

func (r *recorder) attr(id int, key string, v any) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.spans[id].Attrs == nil {
		r.spans[id].Attrs = map[string]any{}
	}
	r.spans[id].Attrs[key] = v
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover. Children may overlap each
// other (concurrent requests under one phase) and are clipped to the
// parent, so the covered part is the union of their intervals.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the kids' intervals inside p.
func covered(p span, kids []span) time.Duration {
	sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
	var total time.Duration
	edge := p.Start
	for _, k := range kids {
		lo, hi := max(k.Start, edge), min(k.End, p.End)
		if hi > lo {
			total += hi - lo
			edge = hi
		}
	}
	return total
}

// sumByName adds up the durations of all spans with the given name, in
// milliseconds.
func sumByName(spans []span, name string) float64 {
	var d time.Duration
	for _, s := range spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return ms(d)
}

// writeChrome renders the spans as Chrome trace_event JSON ("X" complete
// events, microsecond timestamps). Spans of one cell share args.cell;
// args.parent names the causing span. Concurrent children of one parent
// are spread over thread ids so the viewer does not stack them falsely.
func writeChrome(w io.Writer, process string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := []event{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": process}}}
	for _, s := range spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent, "cell": s.Cell}
		for k, v := range s.Attrs {
			args[k] = v
		}
		tid := 0
		if lane, ok := s.Attrs["lane"].(int); ok {
			tid = lane
		}
		events = append(events, event{
			Name: s.Name, Cat: "bench", Ph: "X", Pid: 1, Tid: tid,
			Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3, Args: args,
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
