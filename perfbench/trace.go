package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call the benchmark made into a layer. Parent is the ID
// of the span that caused it (0 for a root); Key names the simulation or
// request the span belongs to (-1 when neither applies). Start and End are
// offsets from the tracer's origin.
type Span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Name   string        `json:"name"`
	Key    int64         `json:"key"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer is
// tracing switched off: every method is a no-op, so the untraced run pays
// only a nil check at each call site.
type Tracer struct {
	origin time.Time
	ids    atomic.Int64
	mu     sync.Mutex
	spans  []Span
}

func newTracer() *Tracer {
	return &Tracer{origin: time.Now(), spans: make([]Span, 0, 1<<16)}
}

// NewID reserves a span ID, so children can name a parent that has not
// ended yet. It returns 0 when tracing is off.
func (t *Tracer) NewID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// Record stores a finished span under a reserved ID.
func (t *Tracer) Record(id, parent int64, name string, key int64, start, end time.Time) {
	if t == nil {
		return
	}
	s := Span{ID: id, Parent: parent, Name: name, Key: key, Start: start.Sub(t.origin), End: end.Sub(t.origin)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Add records a finished span with a fresh ID and returns the ID.
func (t *Tracer) Add(parent int64, name string, key int64, start, end time.Time) int64 {
	id := t.NewID()
	t.Record(id, parent, name, key, start, end)
	return id
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// SpanStat aggregates the spans of one name.
type SpanStat struct {
	Name  string
	Count int
	Total time.Duration // summed durations
	Self  time.Duration // summed self times
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval that its children cover; overlapping
// children count once, and a child sticking out of its parent counts only
// inside the parent.
func selfTimes(spans []Span) []SpanStat {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*SpanStat{}
	for _, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &SpanStat{Name: s.Name}
			byName[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.Total += d
		st.Self += d - covered(s, children[s.ID])
	}
	out := make([]SpanStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent Span, kids []Span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// writeSpans writes one JSON object per span to path.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
