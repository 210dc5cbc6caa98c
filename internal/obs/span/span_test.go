package span

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestKindTagWireNames(t *testing.T) {
	kinds := map[Kind]string{
		KindRun: "run", KindReplication: "replication", KindSweep: "sweep",
		KindSession: "session", KindStep: "step", KindFault: "fault",
		Kind(0): "unknown",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	tags := map[Tag]string{
		TagNone: "", TagInitiator: "initiator", TagTarget: "target",
		TagDrop: "drop", TagRetransmit: "retransmit", TagTimeout: "timeout",
		TagCrash: "crash", TagRecover: "recover", Tag(99): "unknown",
	}
	for tag, want := range tags {
		if got := tag.String(); got != want {
			t.Errorf("Tag(%d).String() = %q, want %q", tag, got, want)
		}
	}
}

func TestAppendAssignsSequentialIDs(t *testing.T) {
	r := NewRecorder(8)
	id1 := r.Append(Span{Kind: KindStep})
	id2 := r.Append(Span{Kind: KindStep})
	if id1 != 1 || id2 != 2 {
		t.Fatalf("ids = %d, %d, want 1, 2", id1, id2)
	}
	pre := r.NextID()
	if pre != 3 {
		t.Fatalf("NextID = %d, want 3", pre)
	}
	// Appending with a pre-allocated ID must not burn a fresh one.
	got := r.Append(Span{ID: pre, Kind: KindSession})
	if got != pre {
		t.Fatalf("Append(pre-allocated) returned %d, want %d", got, pre)
	}
	if next := r.NextID(); next != 4 {
		t.Fatalf("NextID after explicit-ID append = %d, want 4", next)
	}
}

func TestSubNamespaceDisjoint(t *testing.T) {
	a := NewSub(8, 1)
	b := NewSub(8, 2)
	ia := a.Append(Span{Kind: KindSession})
	ib := b.Append(Span{Kind: KindSession})
	if ia == ib {
		t.Fatalf("sub-recorders produced colliding ids %d", ia)
	}
	if ia != 1<<32|1 || ib != 2<<32|1 {
		t.Fatalf("ids = %#x, %#x, want namespaced", uint64(ia), uint64(ib))
	}
}

func TestRingOverflowDropsOldest(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 5; i++ {
		r.Append(Span{Kind: KindStep, Start: int64(i), End: int64(i)})
	}
	if r.Total() != 5 || r.Dropped() != 3 || r.Len() != 2 {
		t.Fatalf("total/dropped/len = %d/%d/%d, want 5/3/2", r.Total(), r.Dropped(), r.Len())
	}
	got := r.Spans()
	if len(got) != 2 || got[0].Start != 3 || got[1].Start != 4 {
		t.Fatalf("retained = %+v, want starts 3, 4", got)
	}
}

func TestMergePreservesIDsAndOrder(t *testing.T) {
	parent := NewRecorder(16)
	r1 := NewSub(8, 1)
	r2 := NewSub(8, 2)
	r1.Append(Span{Kind: KindReplication, A: 0})
	r1.Append(Span{Kind: KindSession, A: 0, B: 1})
	r2.Append(Span{Kind: KindReplication, A: 1})
	parent.Merge(r1)
	parent.Merge(r2)
	got := parent.Spans()
	if len(got) != 3 {
		t.Fatalf("merged %d spans, want 3", len(got))
	}
	if got[0].ID != 1<<32|1 || got[1].ID != 1<<32|2 || got[2].ID != 2<<32|1 {
		t.Fatalf("merged ids = %#x %#x %#x", uint64(got[0].ID), uint64(got[1].ID), uint64(got[2].ID))
	}
}

func TestRootRoundTrip(t *testing.T) {
	r := NewRecorder(4)
	if r.Root() != 0 {
		t.Fatalf("fresh recorder root = %d, want 0", r.Root())
	}
	r.SetRoot(7)
	if r.Root() != 7 {
		t.Fatalf("root = %d, want 7", r.Root())
	}
}

func TestWriteJSONL(t *testing.T) {
	r := NewRecorder(4)
	sid := r.NextID()
	r.Append(Span{ID: sid, Parent: 0, Kind: KindSession, Tag: TagTarget, Flags: FlagCommitted, A: 3, B: 7, Start: 120, End: 190, Clock: 42, Value: 5})
	r.Append(Span{Parent: sid, Kind: KindFault, Tag: TagDrop, A: 3, B: 7, Start: 150, End: 150, Value: 1})
	var sb strings.Builder
	if err := r.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want header + 2 records:\n%s", len(lines), sb.String())
	}
	if want := `{"meta":"hetlb-spans","version":1,"total":2,"dropped":0,"retained":2}`; lines[0] != want {
		t.Fatalf("header = %s, want %s", lines[0], want)
	}
	if want := `{"id":1,"parent":0,"kind":"session","tag":"target","flags":1,"a":3,"b":7,"start":120,"end":190,"clock":42,"v":5}`; lines[1] != want {
		t.Fatalf("line 1 = %s, want %s", lines[1], want)
	}
	if want := `{"id":2,"parent":1,"kind":"fault","tag":"drop","flags":0,"a":3,"b":7,"start":150,"end":150,"clock":0,"v":1}`; lines[2] != want {
		t.Fatalf("line 2 = %s, want %s", lines[2], want)
	}
}

func TestAppendAndNextIDDoNotAllocate(t *testing.T) {
	r := NewRecorder(64)
	s := Span{Kind: KindStep, A: 1, B: 2, Start: 10, End: 11, Value: 3}
	if n := testing.AllocsPerRun(200, func() { r.Append(s) }); n != 0 {
		t.Errorf("Append allocates %.1f per call, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { r.NextID() }); n != 0 {
		t.Errorf("NextID allocates %.1f per call, want 0", n)
	}
}

func TestConcurrentAppendKeepsAccounting(t *testing.T) {
	r := NewRecorder(128)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			for i := 0; i < 1000; i++ {
				r.Append(Span{Kind: KindStep})
			}
			done <- struct{}{}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if r.Total() != 4000 || r.Dropped() != 4000-128 {
		t.Fatalf("total/dropped = %d/%d, want 4000/%d", r.Total(), r.Dropped(), 4000-128)
	}
}

// TestWriteChromeTrace pins the Chrome trace_event export of a small fixed
// trace (one run span, one session span, one fault point) byte for byte,
// then checks that it decodes as JSON with the intended event phases.
func TestWriteChromeTrace(t *testing.T) {
	r := NewRecorder(8)
	run := r.NextID()
	sess := r.NextID()
	r.Append(Span{Parent: sess, Kind: KindFault, Tag: TagDrop, A: 3, B: 7, Start: 150, End: 150, Clock: 40, Value: 1})
	r.Append(Span{ID: sess, Parent: run, Kind: KindSession, Tag: TagInitiator, Flags: FlagCommitted,
		A: 3, B: 7, Start: 120, End: 190, Clock: 42, Value: 5})
	r.Append(Span{ID: run, Kind: KindRun, A: -1, B: -1, Start: 0, End: 200, Value: 9})
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"traceEvents":[
{"name":"fault:drop","ph":"i","s":"t","pid":0,"tid":3,"ts":150,"args":{"id":3,"parent":2,"b":7,"flags":0,"clock":40,"v":1}},
{"name":"session:initiator","ph":"X","pid":0,"tid":3,"ts":120,"dur":70,"args":{"id":2,"parent":1,"b":7,"flags":1,"clock":42,"v":5}},
{"name":"run","ph":"X","pid":0,"tid":-1,"ts":0,"dur":200,"args":{"id":1,"parent":0,"b":-1,"flags":0,"clock":0,"v":9}}
],"displayTimeUnit":"ms","otherData":{"meta":"hetlb-spans","total":3,"dropped":0}}
`
	if buf.String() != want {
		t.Fatalf("WriteChromeTrace output differs from golden.\n--- got ---\n%s--- want ---\n%s", buf.String(), want)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 3 || doc.TraceEvents[0].Ph != "i" || doc.TraceEvents[1].Ph != "X" || doc.TraceEvents[1].Dur != 70 {
		t.Fatalf("decoded events = %+v", doc.TraceEvents)
	}

	// An empty recorder still writes a loadable document.
	buf.Reset()
	if err := NewRecorder(1).WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil || len(doc.TraceEvents) != 0 {
		t.Fatalf("empty trace: err %v, %d events", err, len(doc.TraceEvents))
	}
}
