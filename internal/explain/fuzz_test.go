package explain

import (
	"bytes"
	"slices"
	"testing"

	"hetlb/internal/obs/span"
)

// FuzzReadSpans feeds arbitrary bytes to the span trace parser. It must never
// panic, and whatever it accepts must survive a second trip through the wire
// format unchanged: the parsed records, appended to a Recorder and written
// with WriteJSONL, read back as exactly the records the Recorder holds. The
// seed corpus under testdata/fuzz/FuzzReadSpans holds real exports, a
// truncated ring and malformed lines.
func FuzzReadSpans(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		spans, _, err := ReadSpans(bytes.NewReader(data))
		if err != nil {
			return
		}
		rec := span.NewRecorder(max(len(spans), 1))
		for _, s := range spans {
			rec.Append(s)
		}
		var buf bytes.Buffer
		if err := rec.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		got, hdr, err := ReadSpans(&buf)
		if err != nil {
			t.Fatalf("re-reading a Recorder export: %v\n%s", err, buf.Bytes())
		}
		want := rec.Spans()
		if !slices.Equal(got, want) {
			t.Fatalf("round trip changed the records:\ngot  %+v\nwant %+v", got, want)
		}
		if hdr.Retained != len(want) || hdr.Total != uint64(len(want)) || hdr.Dropped != 0 {
			t.Fatalf("header = %+v for %d records", hdr, len(want))
		}
	})
}
