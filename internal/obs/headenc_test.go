package obs

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// TestEventHeadRoundTrip pins the retained-head encoding: every event
// sequence decodes to itself, including extreme and backward-stepping
// fields, and a run's typical events cost a few bytes instead of 32.
func TestEventHeadRoundTrip(t *testing.T) {
	seqs := [][]Event{
		nil,
		{{}},
		{
			{Kind: KindInstr, Flags: FlagHasOp | FlagALU, Track: 0, Cycle: 0, Dur: 1, Arg: 3},
			{Kind: KindMemRead, Track: 3, Cycle: 5, Arg: 1 << 40},
			{Kind: KindBarrier, Track: TrackMachine, Cycle: 2},
			{Kind: KindWait, Track: 1, Cycle: -7, Dur: -1},
		},
		{
			{Kind: Kind(255), Flags: 255, Track: math.MinInt32, Cycle: math.MinInt64, Dur: math.MaxInt64, Arg: math.MinInt64},
			{Kind: 0, Flags: 0, Track: math.MaxInt32, Cycle: math.MaxInt64, Dur: math.MinInt64, Arg: math.MaxInt64},
			{Track: math.MinInt32, Cycle: math.MinInt64},
		},
	}
	for i, events := range seqs {
		enc := encodeHead(events)
		if got := decodeEvents(enc, len(events)); !slices.Equal(got, events) && len(events) > 0 {
			t.Errorf("sequence %d: decoded %+v, want %+v", i, got, events)
		}
	}

	run := make([]Event, MaxSimEvents)
	for i := range run {
		run[i] = Event{Kind: KindInstr, Flags: FlagHasOp, Track: int32(i % 4), Cycle: int64(i / 4), Dur: 1, Arg: int64(i % 30)}
	}
	enc := encodeHead(run)
	if !slices.Equal(decodeEvents(enc, len(run)), run) {
		t.Fatal("a run's head does not round-trip")
	}
	if per := float64(len(enc)) / float64(len(run)); per > 8 {
		t.Errorf("a run's head costs %.1f bytes per event, want at most 8", per)
	}
}

// FuzzEventHead round-trips arbitrary event sequences, read from the input
// as 34-byte records, through the retained-head encoding.
func FuzzEventHead(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 34))
	f.Add(append(make([]byte, 34), 0xff, 0x7f, 0x80, 0, 0, 0x80, 1, 2, 3, 4, 5, 6, 7, 0x80))
	f.Fuzz(func(t *testing.T, data []byte) {
		var events []Event
		for ; len(data) >= 34; data = data[34:] {
			events = append(events, Event{
				Kind:  Kind(data[0]),
				Flags: data[1],
				Track: int32(binary.LittleEndian.Uint32(data[2:])),
				Cycle: int64(binary.LittleEndian.Uint64(data[6:])),
				Dur:   int64(binary.LittleEndian.Uint64(data[14:])),
				Arg:   int64(binary.LittleEndian.Uint64(data[22:])),
			})
		}
		got := decodeEvents(encodeHead(events), len(events))
		if len(got) != len(events) || len(events) > 0 && !slices.Equal(got, events) {
			t.Fatalf("decoded %+v, want %+v", got, events)
		}
	})
}
