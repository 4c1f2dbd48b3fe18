package obs

import (
	"encoding/binary"
	"sync"
)

// This file is the retained form of an attached simulator stream. A
// request's snapshot stays alive in the flight recorder long after the
// request, and most of what it held was its streams' first MaxSimEvents
// events at 32 bytes each. Kept as a byte encoding instead, an event costs
// a few bytes: its Kind and Flags bytes, then varints of its Track and
// Cycle as deltas from the previous event's and of its Dur and Arg. The
// encoding is lossless for any event sequence (deltas wrap, and are
// zigzag-coded so a step back stays short), and only the Chrome export
// decodes it.

// headScratch recycles the buffers heads are encoded into before they are
// copied out at their exact length.
var headScratch = sync.Pool{New: func() any { return new([]byte) }}

// encodeHead returns the encoding of events in a buffer of exactly its
// length.
func encodeHead(events []Event) []byte {
	if len(events) == 0 {
		return nil
	}
	buf := headScratch.Get().(*[]byte)
	enc := appendEvents((*buf)[:0], events)
	out := append([]byte(nil), enc...)
	*buf = enc
	headScratch.Put(buf)
	return out
}

// appendEvents appends the encoding of events to dst.
func appendEvents(dst []byte, events []Event) []byte {
	var prevTrack int32
	var prevCycle int64
	for i := range events {
		e := &events[i]
		dst = append(dst, byte(e.Kind), e.Flags)
		dst = binary.AppendVarint(dst, int64(e.Track)-int64(prevTrack))
		dst = binary.AppendVarint(dst, int64(uint64(e.Cycle)-uint64(prevCycle)))
		dst = binary.AppendVarint(dst, e.Dur)
		dst = binary.AppendVarint(dst, e.Arg)
		prevTrack, prevCycle = e.Track, e.Cycle
	}
	return dst
}

// decodeEvents decodes the n events appendEvents encoded into src.
func decodeEvents(src []byte, n int) []Event {
	out := make([]Event, 0, n)
	var prevTrack int32
	var prevCycle int64
	varint := func() int64 {
		v, k := binary.Varint(src)
		if k <= 0 {
			panic("obs: corrupt retained event head")
		}
		src = src[k:]
		return v
	}
	for len(src) > 0 {
		if len(src) < 2 {
			panic("obs: corrupt retained event head")
		}
		e := Event{Kind: Kind(src[0]), Flags: src[1]}
		src = src[2:]
		e.Track = int32(int64(prevTrack) + varint())
		e.Cycle = int64(uint64(prevCycle) + uint64(varint()))
		e.Dur = varint()
		e.Arg = varint()
		prevTrack, prevCycle = e.Track, e.Cycle
		out = append(out, e)
	}
	return out
}
