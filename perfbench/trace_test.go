package main

import (
	"testing"
	"time"
)

func span(id, parent int64, name string, start, end time.Duration) Span {
	return Span{ID: id, Parent: parent, Name: name, Key: -1, Start: start, End: end}
}

func statOf(t *testing.T, stats []SpanStat, name string) SpanStat {
	t.Helper()
	for _, s := range stats {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no stat for %q in %v", name, stats)
	return SpanStat{}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		span(1, 0, "parent", 0, 100*ms),
		// Two overlapping children cover [10, 40); a third covers [60, 70).
		span(2, 1, "child", 10*ms, 30*ms),
		span(3, 1, "child", 20*ms, 40*ms),
		span(4, 1, "child", 60*ms, 70*ms),
		// A child sticking out of its parent counts only inside it.
		span(5, 1, "late", 95*ms, 120*ms),
		// A grandchild is its child's business, not the parent's.
		span(6, 4, "grandchild", 60*ms, 65*ms),
	}
	stats := selfTimes(spans)
	p := statOf(t, stats, "parent")
	if p.Total != 100*ms || p.Self != 100*ms-30*ms-10*ms-5*ms {
		t.Errorf("parent total %v self %v, want 100ms and 55ms", p.Total, p.Self)
	}
	c := statOf(t, stats, "child")
	if c.Count != 3 || c.Total != 50*ms || c.Self != 45*ms {
		t.Errorf("child count %d total %v self %v, want 3, 50ms, 45ms", c.Count, c.Total, c.Self)
	}
	if g := statOf(t, stats, "grandchild"); g.Self != 5*ms {
		t.Errorf("leaf self %v, want its duration", g.Self)
	}
}

func TestNilTracerIsOff(t *testing.T) {
	var tr *Tracer
	if id := tr.Add(0, "x", 1, time.Now(), time.Now()); id != 0 {
		t.Errorf("nil tracer returned ID %d", id)
	}
	if tr.Spans() != nil {
		t.Error("nil tracer has spans")
	}
}

func TestTracerRecordsParentLinks(t *testing.T) {
	tr := newTracer()
	start := tr.origin
	parent := tr.NewID()
	child := tr.Add(parent, "child", 7, start.Add(time.Millisecond), start.Add(2*time.Millisecond))
	tr.Record(parent, 0, "parent", -1, start, start.Add(3*time.Millisecond))
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].ID != child || spans[0].Parent != parent || spans[0].Key != 7 {
		t.Fatalf("spans = %+v", spans)
	}
	if p := statOf(t, selfTimes(spans), "parent"); p.Self != 2*time.Millisecond {
		t.Errorf("parent self %v, want 2ms", p.Self)
	}
}
