package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"time"
)

// WriteChromeTrace serializes spans in Chrome trace_event JSON — the
// format chrome://tracing and Perfetto load directly. Each span becomes a
// complete ("X") event and each span event an instant ("i") event; spans
// are grouped into tracks (tid) by their root span, so a parallel dataset
// build renders one timeline row per concurrent flow run.
//
// The output is deterministic for a given span set: events are ordered by
// start time (span ID tie-break), every object's fields are written in a
// fixed order by hand, and no wall-clock reading happens here — all
// timestamps come from the tracer's epoch-relative offsets, so a fixed
// test clock yields a byte-stable file (the golden-file test pins this).
func WriteChromeTrace(w io.Writer, spans []SpanData) error {
	ordered := make([]SpanData, len(spans))
	copy(ordered, spans)
	sort.SliceStable(ordered, func(i, j int) bool {
		if ordered[i].Start != ordered[j].Start {
			return ordered[i].Start < ordered[j].Start
		}
		return ordered[i].ID < ordered[j].ID
	})

	// Tracks: one tid per root span, numbered in first-appearance order of
	// the sorted events.
	tid := make(map[int64]int)
	for _, s := range ordered {
		if _, ok := tid[s.RootID]; !ok {
			tid[s.RootID] = len(tid) + 1
		}
	}

	bw := bufio.NewWriter(w)
	bw.WriteString(`{"traceEvents":[`)
	for i, s := range ordered {
		if i > 0 {
			bw.WriteString(",\n")
		}
		writeCompleteEvent(bw, s, tid[s.RootID])
		for _, e := range s.Events {
			bw.WriteString(",\n")
			writeInstantEvent(bw, e, tid[s.RootID])
		}
	}
	bw.WriteString("\n],\"displayTimeUnit\":\"ms\"}\n")
	return bw.Flush()
}

// WriteChromeTrace exports the tracer's finished spans; see the package
// function. Nil-safe: a nil tracer writes an empty (but valid) trace.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTrace(w, t.Spans())
}

func writeCompleteEvent(bw *bufio.Writer, s SpanData, tid int) {
	bw.WriteString(`{"name":`)
	bw.Write(jsonString(s.Name))
	fmt.Fprintf(bw, `,"ph":"X","ts":%d,"dur":%d,"pid":1,"tid":%d`,
		micros(s.Start), micros(s.End-s.Start), tid)
	writeArgs(bw, s.Attrs)
	bw.WriteByte('}')
}

func writeInstantEvent(bw *bufio.Writer, e EventData, tid int) {
	bw.WriteString(`{"name":`)
	bw.Write(jsonString(e.Name))
	fmt.Fprintf(bw, `,"ph":"i","ts":%d,"pid":1,"tid":%d,"s":"t"`, micros(e.At), tid)
	writeArgs(bw, e.Attrs)
	bw.WriteByte('}')
}

// writeArgs renders attributes as the event's "args" object, preserving
// attribute order (already deterministic at the instrumentation site).
func writeArgs(bw *bufio.Writer, attrs []Attr) {
	if len(attrs) == 0 {
		return
	}
	bw.WriteString(`,"args":{`)
	for i, a := range attrs {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.Write(jsonString(a.Key))
		bw.WriteByte(':')
		bw.Write(jsonValue(a.Value))
	}
	bw.WriteByte('}')
}

// micros converts an epoch offset to trace_event's microsecond unit.
func micros(d time.Duration) int64 { return int64(d / time.Microsecond) }

// jsonString marshals s as a JSON string (encoding/json's escaping rules,
// which are valid JSON for every input — strconv.Quote's are not).
func jsonString(s string) []byte {
	b, err := json.Marshal(s)
	if err != nil { // cannot happen for a string
		return []byte(`""`)
	}
	return b
}

// jsonValue renders one attribute value. Unsupported types and non-finite
// floats degrade to their string form rather than corrupting the file.
func jsonValue(v any) []byte {
	switch x := v.(type) {
	case string:
		return jsonString(x)
	case bool:
		if x {
			return []byte("true")
		}
		return []byte("false")
	case int64:
		return strconv.AppendInt(nil, x, 10)
	case int:
		return strconv.AppendInt(nil, int64(x), 10)
	case float64:
		if math.IsInf(x, 0) || math.IsNaN(x) {
			return jsonString(strconv.FormatFloat(x, 'g', -1, 64))
		}
		return strconv.AppendFloat(nil, x, 'g', -1, 64)
	default:
		return jsonString(fmt.Sprint(x))
	}
}

// MarshalJSON serializes the bucket, rendering the overflow bucket's +Inf
// bound as the string "+Inf" (bare Inf is not valid JSON).
func (b BucketSnap) MarshalJSON() ([]byte, error) {
	if math.IsInf(b.UpperBound, 1) {
		return []byte(fmt.Sprintf(`{"le":"+Inf","count":%d}`, b.Count)), nil
	}
	return []byte(fmt.Sprintf(`{"le":%s,"count":%d}`,
		strconv.FormatFloat(b.UpperBound, 'g', -1, 64), b.Count)), nil
}

// UnmarshalJSON accepts both the numeric and the "+Inf" bound forms.
func (b *BucketSnap) UnmarshalJSON(data []byte) error {
	var raw struct {
		LE    any   `json:"le"`
		Count int64 `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	b.Count = raw.Count
	switch v := raw.LE.(type) {
	case float64:
		b.UpperBound = v
	case string:
		b.UpperBound = math.Inf(1)
	}
	return nil
}

// WriteMetricsJSON serializes a metrics snapshot as indented JSON. The
// snapshot's sections are name-sorted and struct field order is fixed, so
// the bytes are deterministic for a given set of metric values.
func WriteMetricsJSON(w io.Writer, snap Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// WriteMetricsJSON exports the observer's registry snapshot. Nil-safe: a
// disabled observer writes an empty snapshot.
func (o *Observer) WriteMetricsJSON(w io.Writer) error {
	return WriteMetricsJSON(w, o.Metrics().Snapshot())
}
