package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRequestIDClean(t *testing.T) {
	if got := CleanRequestID("abc.DEF_123:x-y"); got != "abc.DEF_123:x-y" {
		t.Errorf("valid id rewritten to %q", got)
	}
	for _, bad := range []string{"", "has space", "quo\"te", strings.Repeat("x", 200), "née"} {
		got := CleanRequestID(bad)
		if got == bad {
			t.Errorf("bad id %q accepted", bad)
		}
		if !strings.HasPrefix(got, "req-") {
			t.Errorf("replacement %q not generated", got)
		}
	}
	if NewRequestID() == NewRequestID() {
		t.Error("NewRequestID not unique")
	}
}

func TestRecorderNilSafety(t *testing.T) {
	var r *Recorder
	s := r.Start("x", 0, Int("task", 1))
	s.SetAttr("k", "v")
	s.End()
	if got := s.ID(); got != 0 {
		t.Errorf("nil span ID = %d, want 0", got)
	}
	if r.Record("y", 0, time.Now(), time.Now()) != 0 {
		t.Error("nil Record returned nonzero id")
	}
	if r.Spans() != nil {
		t.Error("nil Spans() != nil")
	}
}

func TestRecorderParentageAndOrder(t *testing.T) {
	r := NewRecorder()
	root := r.Start("job", 0)
	a := r.Start("auction", root.ID(), Int("task", 0))
	b := r.Start("bidding", a.ID(), Attr{Key: "phase", Value: "II"})
	time.Sleep(2 * time.Millisecond)
	b.End()
	a.SetAttr("winner", "2")
	a.End()
	root.End()

	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["auction"].Parent != byName["job"].ID {
		t.Error("auction not parented under job")
	}
	if byName["bidding"].Parent != byName["auction"].ID {
		t.Error("bidding not parented under auction")
	}
	if byName["bidding"].Attr("phase") != "II" {
		t.Errorf("phase attr = %q", byName["bidding"].Attr("phase"))
	}
	if byName["auction"].Attr("winner") != "2" {
		t.Error("SetAttr after Start lost")
	}
	if byName["bidding"].DurUS < 1000 {
		t.Errorf("bidding duration %dus, want >= 2ms-ish", byName["bidding"].DurUS)
	}
	// Enclosure: child runs within the parent.
	if byName["bidding"].StartUS < byName["job"].StartUS ||
		byName["bidding"].StartUS+byName["bidding"].DurUS > byName["job"].StartUS+byName["job"].DurUS+1000 {
		t.Error("child span escapes parent window")
	}
	if !sort.SliceIsSorted(spans, func(i, j int) bool { return spans[i].StartUS < spans[j].StartUS }) {
		t.Error("Spans() not ordered by start")
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	root := r.Start("root", 0)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := r.Start("child", root.ID(), Int("i", i))
			s.End()
		}(i)
	}
	wg.Wait()
	root.End()
	spans := r.Spans()
	if len(spans) != 33 {
		t.Fatalf("got %d spans, want 33", len(spans))
	}
	seen := map[SpanID]bool{}
	for _, s := range spans {
		if seen[s.ID] {
			t.Fatalf("duplicate span id %d", s.ID)
		}
		seen[s.ID] = true
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	r := NewRecorder()
	root := r.Start("job", 0)
	c := r.Start("phase", root.ID(), Attr{Key: "phase", Value: "IV"})
	c.End()
	root.End()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, r.Spans()); err != nil {
		t.Fatal(err)
	}
	// Every line parses as standalone JSON.
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	lines := 0
	for sc.Scan() {
		lines++
		var v map[string]any
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			t.Fatalf("line %d not JSON: %v", lines, err)
		}
	}
	if lines != 2 {
		t.Fatalf("%d lines, want 2", lines)
	}
	back, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[1].Attr("phase") != "IV" {
		t.Fatalf("round trip lost data: %+v", back)
	}
	// Corruption is loud.
	if _, err := ReadJSONL(strings.NewReader("{\"id\":1}\nnot json\n")); err == nil {
		t.Error("ReadJSONL accepted garbage")
	}
}

func TestWaterfallRendering(t *testing.T) {
	r := NewRecorder()
	root := r.Start("job", 0, Attr{Key: "request_id", Value: "req-1"})
	a := r.Start("auction", root.ID(), Int("task", 0))
	time.Sleep(time.Millisecond)
	a.End()
	root.End()
	var buf bytes.Buffer
	if err := Waterfall(&buf, r.Spans(), 40); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"trace: 2 spans", "job request_id=req-1", "  auction task=0", "█"} {
		if !strings.Contains(out, want) {
			t.Errorf("waterfall missing %q:\n%s", want, out)
		}
	}
	// Orphaned parents render as roots instead of vanishing.
	orphan := []Span{{ID: 7, Parent: 99, Name: "lost", StartUS: 0, DurUS: 10}}
	buf.Reset()
	if err := Waterfall(&buf, orphan, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "lost") {
		t.Error("orphan span dropped from waterfall")
	}
}

func TestHistogramCumulativeContract(t *testing.T) {
	h := NewHDRBounds([]float64{1, 5, 10})
	for _, v := range []float64{0.5, 0.7, 3, 7, 50, 10} { // 10 lands in le="10"
		h.Observe(v)
	}
	var buf bytes.Buffer
	h.Write(&buf, "t_seconds", "")
	series := parseExposition(t, buf.String())
	AssertHistogramContract(t, series, "t_seconds", "")
	if got := series[`t_seconds_bucket{le="1"}`]; got != 2 {
		t.Errorf("le=1 bucket = %g, want 2 (cumulative)", got)
	}
	if got := series[`t_seconds_bucket{le="10"}`]; got != 5 {
		t.Errorf("le=10 bucket = %g, want 5 (cumulative)", got)
	}
	if got := series[`t_seconds_bucket{le="+Inf"}`]; got != 6 {
		t.Errorf("+Inf bucket = %g, want 6", got)
	}
	if got := series["t_seconds_count"]; got != 6 {
		t.Errorf("count = %g, want 6", got)
	}
	if got := series["t_seconds_sum"]; math.Abs(got-71.2) > 1e-3 {
		t.Errorf("sum = %g, want 71.2", got)
	}

	// Labeled exposition keeps le last and the same contract.
	buf.Reset()
	h.Write(&buf, "t_seconds", `phase="x"`)
	labeled := parseExposition(t, buf.String())
	AssertHistogramContract(t, labeled, "t_seconds", `phase="x"`)
	if _, ok := labeled[`t_seconds_bucket{phase="x",le="+Inf"}`]; !ok {
		t.Errorf("labeled +Inf series missing:\n%s", buf.String())
	}
}

func TestHistogramBadBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unordered bounds did not panic")
		}
	}()
	NewHDRBounds([]float64{1, 1})
}

func TestRuntimeAndBuildInfo(t *testing.T) {
	var buf bytes.Buffer
	WriteRuntimeMetrics(&buf, "x")
	out := buf.String()
	for _, want := range []string{"x_go_goroutines ", "x_go_heap_bytes ", "x_go_gc_pause_seconds_total "} {
		if !strings.Contains(out, want) {
			t.Errorf("runtime metrics missing %q:\n%s", want, out)
		}
	}
	series := parseExposition(t, out)
	if series["x_go_goroutines"] < 1 {
		t.Error("goroutine gauge < 1")
	}

	buf.Reset()
	WriteBuildInfo(&buf, "x", "rep-1")
	if !strings.Contains(buf.String(), `x_build_info{version="`) ||
		!strings.Contains(buf.String(), `replica_id="rep-1"} 1`) {
		t.Errorf("build info malformed: %s", buf.String())
	}
	buf.Reset()
	WriteBuildInfo(&buf, "x", "")
	if strings.Contains(buf.String(), "replica_id") {
		t.Errorf("empty replica id still labeled: %s", buf.String())
	}
}

func TestLoggerFormats(t *testing.T) {
	var buf bytes.Buffer
	l, err := NewLogger(&buf, "debug", "json")
	if err != nil {
		t.Fatal(err)
	}
	l.Info("hello", "request_id", "req-9")
	Logf(l)("printf %s line", "style")
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	n := 0
	for sc.Scan() {
		n++
		var v map[string]any
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			t.Fatalf("log line %d not JSON: %v: %s", n, err, sc.Text())
		}
	}
	if n != 2 {
		t.Fatalf("%d log lines, want 2", n)
	}
	if !strings.Contains(buf.String(), `"request_id":"req-9"`) {
		t.Error("structured attr lost")
	}

	if _, err := NewLogger(&buf, "nope", "json"); err == nil {
		t.Error("bad level accepted")
	}
	if _, err := NewLogger(&buf, "info", "yaml"); err == nil {
		t.Error("bad format accepted")
	}
	if l, err := NewLogger(&buf, "error", "text"); err != nil || l.Enabled(nil, -4) {
		t.Error("level filtering not applied")
	}
	Logf(nil)("discarded %d", 1) // must not panic
}

// parseExposition parses "name{labels} value" lines into a map.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("malformed value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// AssertHistogramContract checks the Prometheus text-format histogram
// invariants for series `name` with constant labels `labels` ("" for
// none): cumulative non-decreasing buckets in ascending le order,
// +Inf == _count, and _sum present and consistent with the bucket
// bounds. It is exported to the test binary style used by the server
// and gateway suites via copy — the canonical implementation lives
// here next to HDR.
func AssertHistogramContract(t *testing.T, series map[string]float64, name, labels string) {
	t.Helper()
	prefix := name + "_bucket{"
	if labels != "" {
		prefix += labels + ","
	}
	type bkt struct {
		le  float64
		val float64
	}
	var buckets []bkt
	inf := math.NaN()
	for k, v := range series {
		if !strings.HasPrefix(k, prefix) || !strings.HasSuffix(k, "\"}") {
			continue
		}
		le := strings.TrimSuffix(strings.TrimPrefix(k, prefix+`le="`), `"}`)
		if le == "+Inf" {
			inf = v
			continue
		}
		f, err := strconv.ParseFloat(le, 64)
		if err != nil {
			t.Errorf("unparseable le bound in %q", k)
			continue
		}
		buckets = append(buckets, bkt{le: f, val: v})
	}
	if len(buckets) == 0 {
		t.Fatalf("no buckets found for %s (labels %q)", name, labels)
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	for i := 1; i < len(buckets); i++ {
		if buckets[i].val < buckets[i-1].val {
			t.Errorf("%s: bucket le=%g count %g < le=%g count %g (not cumulative)",
				name, buckets[i].le, buckets[i].val, buckets[i-1].le, buckets[i-1].val)
		}
	}
	if math.IsNaN(inf) {
		t.Fatalf("%s: +Inf bucket missing", name)
	}
	if inf < buckets[len(buckets)-1].val {
		t.Errorf("%s: +Inf %g < last bucket %g", name, inf, buckets[len(buckets)-1].val)
	}
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	count, ok := series[name+"_count"+suffix]
	if !ok {
		t.Fatalf("%s: _count missing", name)
	}
	if inf != count {
		t.Errorf("%s: +Inf bucket %g != _count %g", name, inf, count)
	}
	if _, ok := series[name+"_sum"+suffix]; !ok {
		t.Errorf("%s: _sum missing", name)
	}
}

var _ = fmt.Sprintf // keep fmt for debugging convenience
