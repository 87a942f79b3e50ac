package obs

import "testing"

func TestSpanParentChildLinkage(t *testing.T) {
	tr := NewTracer()
	rec := NewSpanRecorder(16)
	tr.AttachSink(rec)

	root := tr.Start("dispatch")
	root.Set("event", "Get_Class")
	child := root.Child("rule.fire")
	child.Setf("rule", "r%d", 4)
	child.Finish()
	root.Finish()

	spans := rec.Spans()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	// Children finish first, so the ring holds child then root.
	c, r := spans[0], spans[1]
	if c.Name != "rule.fire" || r.Name != "dispatch" {
		t.Fatalf("span order: %q, %q", c.Name, r.Name)
	}
	if c.Parent != r.ID {
		t.Errorf("child.Parent = %d, want root ID %d", c.Parent, r.ID)
	}
	if r.Parent != 0 {
		t.Errorf("root.Parent = %d, want 0", r.Parent)
	}
	if len(c.Attrs) != 1 || c.Attrs[0].Key != "rule" || c.Attrs[0].Value != "r4" {
		t.Errorf("child attrs = %v", c.Attrs)
	}
	if r.End.Before(r.Start) || c.Start.Before(r.Start) {
		t.Error("span timestamps out of order")
	}
	if r.Duration() < 0 {
		t.Error("negative duration")
	}
}

func TestDisabledTracer(t *testing.T) {
	tr := NewTracer()
	if tr.Enabled() {
		t.Error("fresh tracer should be disabled")
	}
	sp := tr.Start("op")
	if sp != nil {
		t.Fatal("disabled tracer should return a nil span")
	}
	// Every span method must be a nil-safe no-op.
	sp.Set("k", "v").Setf("k2", "%d", 1)
	sp.Child("sub").Finish()
	sp.Finish()
	if sp.Duration() != 0 {
		t.Error("nil span duration should be 0")
	}
}

func TestTracerDetachDropsInFlightSpans(t *testing.T) {
	tr := NewTracer()
	rec := NewSpanRecorder(4)
	tr.AttachSink(rec)
	sp := tr.Start("op")
	tr.AttachSink(nil)
	sp.Finish() // sink detached mid-span: dropped, not crashed
	if got := rec.Total(); got != 0 {
		t.Errorf("recorded %d spans after detach, want 0", got)
	}
	if tr.Enabled() {
		t.Error("tracer should be disabled after AttachSink(nil)")
	}
}

func TestSpanRecorderRing(t *testing.T) {
	tr := NewTracer()
	rec := NewSpanRecorder(3)
	tr.AttachSink(rec)
	names := []string{"a", "b", "c", "d", "e"}
	for _, n := range names {
		tr.Start(n).Finish()
	}
	if got := rec.Total(); got != 5 {
		t.Errorf("total = %d, want 5", got)
	}
	spans := rec.Spans()
	if len(spans) != 3 {
		t.Fatalf("retained %d spans, want 3", len(spans))
	}
	for i, want := range []string{"c", "d", "e"} {
		if spans[i].Name != want {
			t.Errorf("spans[%d] = %q, want %q (oldest first)", i, spans[i].Name, want)
		}
	}
}
