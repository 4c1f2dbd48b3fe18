package obs

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestTraceRecorder(t *testing.T) {
	tr := NewTrace()
	if tr.Len() != 0 {
		t.Fatalf("new trace has %d events", tr.Len())
	}
	tr.Emit(Event{Kind: KindInstr, Track: 0, Cycle: 1})
	tr.Emit(Event{Kind: KindBarrier, Track: TrackMachine, Cycle: 2})
	if tr.Len() != 2 {
		t.Errorf("len = %d, want 2", tr.Len())
	}
	evs := tr.Events()
	evs[0].Cycle = 99 // Events must return a copy
	if tr.Events()[0].Cycle != 1 {
		t.Error("Events returned a live slice, not a copy")
	}
	tr.Reset()
	if tr.Len() != 0 {
		t.Errorf("len after reset = %d", tr.Len())
	}
}

func TestTraceConcurrentEmit(t *testing.T) {
	tr := NewTrace()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(track int32) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tr.Emit(Event{Kind: KindInstr, Track: track, Cycle: int64(i)})
			}
		}(int32(g))
	}
	wg.Wait()
	if tr.Len() != 8000 {
		t.Errorf("len = %d, want 8000", tr.Len())
	}
}

func TestDiscard(t *testing.T) {
	var d Discard
	d.Emit(Event{Kind: KindInstr}) // must not panic; a Tracer
	var _ Tracer = d
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindInstr:    "instr",
		KindMemRead:  "mem-read",
		KindMemWrite: "mem-write",
		KindSend:     "send",
		KindRecv:     "recv",
		KindBarrier:  "barrier",
		KindStall:    "net-stall",
		KindWait:     "wait",
		KindReconfig: "reconfig",
		KindPhase:    "phase",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
}

// chromeDoc mirrors the export format for test decoding.
type chromeDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   int64          `json:"ts"`
		Dur  *int64         `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		S    string         `json:"s"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func decodeChrome(t *testing.T, events []Event, opt ChromeOptions) chromeDoc {
	t.Helper()
	var b strings.Builder
	if err := WriteChromeTrace(&b, events, opt); err != nil {
		t.Fatal(err)
	}
	if !json.Valid([]byte(b.String())) {
		t.Fatalf("export is not valid JSON:\n%s", b.String())
	}
	var doc chromeDoc
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestWriteChromeTrace(t *testing.T) {
	events := []Event{
		{Kind: KindInstr, Flags: FlagHasOp | FlagALU, Track: 1, Cycle: 5, Dur: 2, Arg: 0}, // some op
		{Kind: KindBarrier, Track: TrackMachine, Cycle: 9},
		{Kind: KindSend, Track: 0, Cycle: 3, Dur: 1, Arg: 1},
	}
	doc := decodeChrome(t, events, ChromeOptions{Process: "test run"})
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}

	var procName string
	threadNames := map[int64]string{}
	var data []int // indices of non-metadata events
	for i, e := range doc.TraceEvents {
		switch {
		case e.Ph == "M" && e.Name == "process_name":
			procName, _ = e.Args["name"].(string)
		case e.Ph == "M" && e.Name == "thread_name":
			name, _ := e.Args["name"].(string)
			threadNames[e.Tid] = name
		default:
			data = append(data, i)
		}
	}
	if procName != "test run" {
		t.Errorf("process name = %q", procName)
	}
	// Machine track is tid 0 named "machine"; tracks 0 and 1 are tids 1, 2.
	if threadNames[0] != "machine" || threadNames[1] != "P0" || threadNames[2] != "P1" {
		t.Errorf("thread names = %v", threadNames)
	}
	if len(data) != 3 {
		t.Fatalf("got %d data events, want 3", len(data))
	}
	// Sorted by cycle: send@3, instr@5, barrier@9.
	first := doc.TraceEvents[data[0]]
	if first.Name != "send" || first.Ts != 3 || first.Ph != "X" || first.Dur == nil || *first.Dur != 1 {
		t.Errorf("first event wrong: %+v", first)
	}
	if peer, ok := first.Args["peer"].(float64); !ok || peer != 1 {
		t.Errorf("send args = %v", first.Args)
	}
	second := doc.TraceEvents[data[1]]
	if second.Ph != "X" || second.Tid != 2 {
		t.Errorf("instr event wrong: %+v", second)
	}
	third := doc.TraceEvents[data[2]]
	if third.Name != "barrier" || third.Ph != "i" || third.S != "t" || third.Tid != 0 {
		t.Errorf("barrier event wrong: %+v", third)
	}
}

func TestWriteChromeTrace_MonotonePerTrack(t *testing.T) {
	// Deliberately unsorted input: the exporter must order by cycle so
	// timestamps are monotone within every track.
	events := []Event{
		{Kind: KindInstr, Track: 0, Cycle: 10, Dur: 1},
		{Kind: KindInstr, Track: 1, Cycle: 4, Dur: 1},
		{Kind: KindInstr, Track: 0, Cycle: 2, Dur: 3},
		{Kind: KindInstr, Track: 1, Cycle: 8, Dur: 1},
		{Kind: KindInstr, Track: 0, Cycle: 7, Dur: 1},
	}
	doc := decodeChrome(t, events, ChromeOptions{})
	last := map[int64]int64{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" {
			continue
		}
		if prev, seen := last[e.Tid]; seen && e.Ts < prev {
			t.Errorf("tid %d: ts %d after %d", e.Tid, e.Ts, prev)
		}
		last[e.Tid] = e.Ts
	}
	if len(last) != 2 {
		t.Errorf("got %d tracks, want 2", len(last))
	}
}

func TestWriteChromeTrace_CustomTrackName(t *testing.T) {
	events := []Event{{Kind: KindInstr, Track: 2, Cycle: 0, Dur: 1}}
	doc := decodeChrome(t, events, ChromeOptions{
		TrackName: func(track int32) string { return "lane-x" },
	})
	found := false
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			if name, _ := e.Args["name"].(string); name == "lane-x" {
				found = true
			}
		}
	}
	if !found {
		t.Error("custom track name not used")
	}
}

// TestRecorderPadding: the shareable recorder fills the 128-byte size
// class exactly, so recorders in use by concurrent runs never share a cache
// line.
func TestRecorderPadding(t *testing.T) {
	if got := reflect.TypeFor[Trace]().Size(); got != recorderSize {
		t.Errorf("Trace is %d bytes, want %d", got, recorderSize)
	}
}
