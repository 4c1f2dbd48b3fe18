// Package obs is the cross-simulator observability layer: a Tracer
// interface every machine-class simulator emits fine-grained run events
// into, an in-memory Trace recorder with a Chrome trace-event (Perfetto-
// loadable) JSON exporter, and a metrics registry with Prometheus-style
// text exposition and a JSON dump.
//
// The paper's flexibility arguments (§III.B) are about *where* machine
// classes spend their cycles — broadcast versus message traffic,
// configuration overhead, interconnect contention. machine.Stats collapses
// a run into eight final counters; this package keeps the dynamics: one
// event per retired instruction, memory access, message, barrier, network
// stall and reconfiguration, stamped with guest cycle and track (the
// processor, lane, core or PE it happened on).
//
// Tracing is strictly opt-in. Every hook site guards with a nil check and
// events are passed by value, so the disabled path adds zero allocations
// and no measurable overhead to the cycle loops (bench_test.go's
// BenchmarkStepTracedVsUntraced and TestDisabledTracerZeroAllocs hold the
// guarantee).
package obs

// Kind identifies what a trace event records.
type Kind uint8

const (
	// KindInstr is one retired instruction (or one fired dataflow node).
	KindInstr Kind = iota
	// KindMemRead is one DP-DM read; Arg is the word address.
	KindMemRead
	// KindMemWrite is one DP-DM write; Arg is the word address.
	KindMemWrite
	// KindSend is one word entering a DP-DP (or IP-IP) network; Arg is the
	// destination port.
	KindSend
	// KindRecv is one word leaving a DP-DP network; Arg is the source port.
	KindRecv
	// KindBarrier is one completed machine-wide synchronization.
	KindBarrier
	// KindStall is cycles lost to interconnect contention; Arg is the
	// stall length in cycles.
	KindStall
	// KindWait is a processor waiting on a dependency that is not network
	// contention: a barrier entry, or a dataflow node queued behind a busy
	// PE. Dur is the wait length when known.
	KindWait
	// KindReconfig is one configuration-bitstream load on a universal-flow
	// fabric; Arg is the bitstream size in bits.
	KindReconfig
	// KindPhase is a named run phase; Arg is caller-defined.
	KindPhase

	kindCount
)

// String names the kind for exports and metrics.
func (k Kind) String() string {
	switch k {
	case KindInstr:
		return "instr"
	case KindMemRead:
		return "mem-read"
	case KindMemWrite:
		return "mem-write"
	case KindSend:
		return "send"
	case KindRecv:
		return "recv"
	case KindBarrier:
		return "barrier"
	case KindStall:
		return "net-stall"
	case KindWait:
		return "wait"
	case KindReconfig:
		return "reconfig"
	case KindPhase:
		return "phase"
	}
	return "unknown"
}

// Event flag bits.
const (
	// FlagALU marks a KindInstr event whose operation counts as an ALU op
	// in machine.Stats.
	FlagALU uint8 = 1 << iota
	// FlagHasOp marks a KindInstr event whose Arg is an isa opcode (rather
	// than a dataflow node ID).
	FlagHasOp
)

// TrackMachine is the track of machine-global events (barriers,
// reconfigurations) that belong to no single processor.
const TrackMachine int32 = -1

// Event is one observed occurrence in a simulated run. It is a flat value
// type — no pointers, no strings — so emitting one never allocates.
type Event struct {
	// Kind says what happened.
	Kind Kind
	// Flags qualifies the event (FlagALU, FlagHasOp).
	Flags uint8
	// Track is the processor/lane/core/PE index, or TrackMachine.
	Track int32
	// Cycle is the guest cycle the event started at.
	Cycle int64
	// Dur is the event's span in cycles; 0 means instantaneous.
	Dur int64
	// Arg is kind-specific: opcode or node ID (KindInstr), address
	// (KindMemRead/Write), peer port (KindSend/Recv), stall cycles
	// (KindStall), bitstream bits (KindReconfig).
	Arg int64
}

// Tracer receives events from the simulators. A run emits from the
// goroutine that calls its Run: no simulator starts goroutines of its own.
// Trace locks, so one may be shared by runs on several goroutines; a
// HeadTrace or a Tally belongs to one run and is never shared.
type Tracer interface {
	Emit(Event)
}

// Discard is a Tracer that drops every event: the enabled-but-free
// baseline benchmarks compare against.
type Discard struct{}

// Emit implements Tracer.
func (Discard) Emit(Event) {}
