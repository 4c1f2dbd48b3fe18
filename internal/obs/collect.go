package obs

import (
	"fmt"
	"strings"

	"repro/internal/isa"
)

// Standard metric names every simulator run exports. The counter values
// are defined so that they equal the corresponding machine.Stats fields of
// the traced run — the invariant cmd/simulate -metrics cross-checks.
const (
	MetricInstructions  = "sim_instructions_total"
	MetricALUOps        = "sim_alu_ops_total"
	MetricMemReads      = "sim_mem_reads_total"
	MetricMemWrites     = "sim_mem_writes_total"
	MetricMessages      = "sim_messages_total"
	MetricBarriers      = "sim_barriers_total"
	MetricNetConflict   = "sim_net_conflict_cycles_total"
	MetricReconfigs     = "sim_reconfigs_total"
	MetricReconfigBits  = "sim_reconfig_bits_total"
	MetricCycles        = "sim_cycles"
	MetricTracks        = "sim_tracks"
	MetricInstrMix      = "sim_instruction_mix_total"
	MetricStallHist     = "sim_net_stall_cycles"
	MetricQueueWaitHist = "sim_queue_wait_cycles"
	MetricTrackInstrs   = "sim_track_instructions_total"
)

// StallBuckets are the contention-stall histogram bounds in cycles.
var StallBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// Collect aggregates a recorded event stream into reg using the standard
// metric names: run totals, the per-track instruction counts and
// instruction mix, the contention-stall histogram and the queue-wait
// (dataflow backlog, barrier entry) histogram. It can be called once per
// run; counters accumulate across calls on the same registry.
func Collect(reg *Registry, events []Event) error {
	instr := reg.MustCounter(MetricInstructions, "retired instructions (all tracks)")
	alu := reg.MustCounter(MetricALUOps, "arithmetic/logic operations")
	reads := reg.MustCounter(MetricMemReads, "DP-DM read traversals")
	writes := reg.MustCounter(MetricMemWrites, "DP-DM write traversals")
	msgs := reg.MustCounter(MetricMessages, "DP-DP and IP-IP network words")
	barriers := reg.MustCounter(MetricBarriers, "completed synchronizations")
	conflict := reg.MustCounter(MetricNetConflict, "cycles lost to interconnect contention")
	reconfigs := reg.MustCounter(MetricReconfigs, "configuration bitstream loads")
	reconfigBits := reg.MustCounter(MetricReconfigBits, "configuration bits loaded")
	stallHist := reg.MustHistogram(MetricStallHist, "interconnect stall lengths in cycles", StallBuckets)
	waitHist := reg.MustHistogram(MetricQueueWaitHist, "non-contention wait lengths in cycles (PE backlog, barrier entry)", StallBuckets)

	var maxCycle int64
	tracks := map[int32]bool{}
	for _, e := range events {
		if end := e.Cycle + e.Dur; end > maxCycle {
			maxCycle = end
		}
		if e.Track != TrackMachine {
			tracks[e.Track] = true
		}
		switch e.Kind {
		case KindInstr:
			instr.Inc()
			if e.Flags&FlagALU != 0 {
				alu.Inc()
			}
			track := fmt.Sprint(e.Track)
			op := "node"
			if e.Flags&FlagHasOp != 0 {
				op = isa.Op(e.Arg).String()
			}
			mix, err := reg.Counter(MetricInstrMix, "retired instructions by track and operation",
				"track", track, "op", op)
			if err != nil {
				return err
			}
			mix.Inc()
			perTrack, err := reg.Counter(MetricTrackInstrs, "retired instructions per track", "track", track)
			if err != nil {
				return err
			}
			perTrack.Inc()
		case KindMemRead:
			reads.Inc()
		case KindMemWrite:
			writes.Inc()
		case KindSend, KindRecv:
			msgs.Inc()
		case KindBarrier:
			barriers.Inc()
		case KindStall:
			conflict.Add(e.Arg)
			stallHist.Observe(float64(e.Arg))
		case KindWait:
			waitHist.Observe(float64(e.Dur))
		case KindReconfig:
			reconfigs.Inc()
			reconfigBits.Add(e.Arg)
		case KindPhase:
			// Phase markers delimit program stages; they carry no counter
			// of their own and surface through the trace views instead.
		}
	}
	reg.MustGauge(MetricCycles, "run makespan in guest cycles (max event end)").Set(float64(maxCycle))
	reg.MustGauge(MetricTracks, "distinct processor tracks observed").Set(float64(len(tracks)))
	return nil
}

// Totals are the seven run counters an event stream must reproduce
// exactly: the machine.Stats fields that MetricInstructions through
// MetricNetConflict mirror. They are what the trace-vs-Stats cross-check
// compares, without building a Registry.
type Totals struct {
	Instructions      int64
	ALUOps            int64
	MemReads          int64
	MemWrites         int64
	Messages          int64
	Barriers          int64
	NetConflictCycles int64
}

// add folds one event into the totals: exactly what Collect counts under
// the seven corresponding names.
func (tot *Totals) add(e *Event) {
	switch e.Kind {
	case KindInstr:
		tot.Instructions++
		if e.Flags&FlagALU != 0 {
			tot.ALUOps++
		}
	case KindMemRead:
		tot.MemReads++
	case KindMemWrite:
		tot.MemWrites++
	case KindSend, KindRecv:
		tot.Messages++
	case KindBarrier:
		tot.Barriers++
	case KindStall:
		tot.NetConflictCycles += e.Arg
	case KindWait, KindReconfig, KindPhase:
		// Not part of machine.Stats' summed counters.
	}
}

// totals folds the recorded events into the run totals in place, under
// the recorder's lock: no copy of the event buffer and no allocation.
func (t *Trace) totals() Totals {
	t.mu.Lock()
	defer t.mu.Unlock()
	var tot Totals
	for i := range t.events {
		tot.add(&t.events[i])
	}
	return tot
}

// Check is the trace-vs-Stats cross-check: it folds the recorded events
// and compares them with want, the run's own accounting. The error names
// every mismatched metric; a matching trace costs no allocation.
func (t *Trace) Check(want Totals) error { return checkTotals(t.totals(), want) }

// checkTotals compares a recorder's folded totals with the run's own
// accounting and names every mismatched metric.
func checkTotals(got, want Totals) error {
	if got == want {
		return nil
	}
	checks := []struct {
		metric    string
		got, want int64
	}{
		{MetricInstructions, got.Instructions, want.Instructions},
		{MetricALUOps, got.ALUOps, want.ALUOps},
		{MetricMemReads, got.MemReads, want.MemReads},
		{MetricMemWrites, got.MemWrites, want.MemWrites},
		{MetricMessages, got.Messages, want.Messages},
		{MetricBarriers, got.Barriers, want.Barriers},
		{MetricNetConflict, got.NetConflictCycles, want.NetConflictCycles},
	}
	var bad []string
	for _, ch := range checks {
		if ch.got != ch.want {
			bad = append(bad, fmt.Sprintf("%s = %d, stats say %d", ch.metric, ch.got, ch.want))
		}
	}
	return fmt.Errorf("metrics/stats cross-check failed: %s", strings.Join(bad, "; "))
}
