package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSimShardedTraceOut runs `hetlb sim -shards 2 --trace-out` and decodes
// the Chrome trace: the sharded engine's span trace must come out as one
// run interval plus one session interval per balancing session.
func TestSimShardedTraceOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	err := cmdSim([]string{"-proto", "dlb2c", "-m1", "8", "-m2", "4", "-jobs", "96",
		"-steps", "60", "-shards", "2", "--trace-out", path})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Dur  int64  `json:"dur"`
		} `json:"traceEvents"`
		OtherData struct {
			Meta    string `json:"meta"`
			Dropped uint64 `json:"dropped"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	counts := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Dur < 0 {
			t.Fatalf("unexpected event %+v", ev)
		}
		counts[ev.Name]++
	}
	if counts["run"] != 1 || counts["session"] == 0 || doc.OtherData.Meta != "hetlb-spans" || doc.OtherData.Dropped != 0 {
		t.Fatalf("event names %v, otherData %+v", counts, doc.OtherData)
	}
}
