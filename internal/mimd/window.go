package mimd

import (
	"math"
	"math/bits"
	"sync"

	"repro/internal/isa"
	"repro/internal/machine"
)

// This file is the optimistic half of the scheduler for a DP-DM crossbar,
// after Jefferson's Time Warp (ACM TOPLAS 1985). At the top of a cycle
// the scheduler opens a round: every core that stands at the start of a
// private block runs a window (machine.CompiledProgram.RunWindow) through
// its loads and stores as if the crossbar never made it wait, logging
// each access and the word each store overwrote. The round is then
// validated against the crossbar model: it commits only if every access
// would arrive the cycle after it issued, had the cores' accesses been
// taken through interconnect.Crossbar in (cycle, core) order, and no word
// one core wrote is read or written by another core in the round. On
// commit the crossbar admits the accesses. Otherwise the round rolls
// back, cores' registers and banks restored, and the cores step op by op,
// as the cut run-ahead does, until the round's horizon.
//
// A commit must also be final: no access the scheduler processes later
// may issue before one the round committed, since the crossbar takes its
// transfers in issue order. So a window stops before its first load or
// store at or past the round's horizon, the horizon is no later than the
// cycle at which a core outside the round may next issue one, and a
// round in which a core's window stops early, at a SEND, RECV or budget,
// before another core's last access is retried once with that core's stop
// as its horizon.

// A round's horizon is span cycles past the cycle it opens at: a longer
// round validates fewer times but wastes more on a rollback. The span
// starts at firstSpan, doubles with every commit up to maxSpan and falls
// back to firstSpan on a rollback.
const (
	firstSpan = 64
	maxSpan   = 2048
)

// minWindow is the shortest horizon a round opens for; closer to the
// next access of a core outside the round, the cores step as before.
const minWindow = 32

// maxWindowCores bounds the core index a word stamp holds, and
// maxWindowWords the address space whose banks validate divides out.
const (
	maxWindowCores = 256
	maxWindowWords = 1 << 32
)

// windows is the per-machine scratch of the optimistic rounds, pooled
// across machines so the logs and stamps are reused.
type windows struct {
	cores []winCore
	// taken and banks are validate's: one bit per (bank, cycle) of the
	// round, and what the round did to each bank.
	taken []uint64
	banks []bankRound
	// stamps marks, per global word, the round that last wrote it and the
	// core that did (sharedWord).
	stamps []uint32
	epoch  uint32
	// perBank is 2^64 / BankWords rounded up: the high word of its
	// product with an address below 2^32 is the address's bank (Lemire,
	// Kaser and Kurz, "Faster remainder by direct computation", 2019).
	perBank uint64
	// resume is the cycle from which rounds open again after a rollback;
	// span is the next round's horizon, in cycles.
	resume, span int64
	// rollBack makes every round roll back (RollBackWindows).
	rollBack bool
	// commits and rollbacks count the run's rounds, for the tests.
	commits, rollbacks int
}

// winCore is one core's part of a round.
type winCore struct {
	log   machine.WindowLog
	trail machine.Trail // the core's consecutive windows, for stop's take-back
	saved machine.Trail // trail before this round's window
	regs  machine.Regs  // registers before this round's window
	pc    int           // where the window stopped
	at    int64         // the cycle that pc issues at
	ran   bool
}

var windowPool sync.Pool

// getWindows returns round scratch for cores cores with bankWords-word
// banks, with every stamp clear.
func getWindows(cores, bankWords int) *windows {
	words := cores * bankWords
	w, _ := windowPool.Get().(*windows)
	if w == nil {
		w = &windows{}
	}
	if cap(w.cores) < cores {
		w.cores = make([]winCore, cores)
	}
	w.cores = w.cores[:cores]
	if cap(w.banks) < cores {
		w.banks = make([]bankRound, cores)
	}
	w.banks = w.banks[:cores]
	if cap(w.stamps) < words {
		w.stamps = make([]uint32, words)
	}
	w.stamps = w.stamps[:words]
	clear(w.stamps)
	w.epoch, w.resume, w.span, w.rollBack, w.commits, w.rollbacks = 0, 0, firstSpan, false, 0, 0
	w.perBank = math.MaxUint64/uint64(bankWords) + 1
	return w
}

// putWindows returns w to the pool, keeping the buffers its logs and
// trails grew into.
func putWindows(w *windows) {
	for i := range w.cores {
		c := &w.cores[i]
		c.trail.Reset()
		*c = winCore{log: machine.WindowLog{Loads: c.log.Loads[:0], Stores: c.log.Stores[:0]}, trail: c.trail}
	}
	windowPool.Put(w)
}

// RollBackWindows makes every optimistic round of the machine's run roll
// back and step op by op, so a differential sweep can pin the rollback
// path against the reference as it pins the commit path. It does nothing
// on a machine that runs no rounds.
func (m *Machine) RollBackWindows() {
	if m.win != nil {
		m.win.rollBack = true
	}
}

// nextAccess is the earliest cycle at which a core of image img that
// stands at pc, ready at cycle at, and cannot open a window there may
// issue a load or store: never if it halts or waits at a barrier there,
// at otherwise.
func nextAccess(img *image, pc int, at int64) int64 {
	if pc < 0 || pc >= len(img.dec) {
		return math.MaxInt64
	}
	if op := img.dec[pc].Op; op == isa.OpSync || op == isa.OpHalt {
		return math.MaxInt64
	}
	return at
}

// windowAt reports whether core c can open a window at its pc.
func windowAt(c *coreState) bool {
	return !c.halted && !c.inBarrier && c.img.win != nil && c.pc >= 0 && c.pc < len(c.img.dec) && c.img.win[c.pc]
}

// round opens an optimistic round at cycle now. See the comment at the
// top of this file.
func (m *Machine) round(now, budget int64, stats *machine.Stats) {
	w := m.win
	horizon := min(now+w.span, budget)
	for i := range m.cores {
		if c := &m.cores[i]; !c.halted && !c.inBarrier && !windowAt(c) {
			horizon = min(horizon, nextAccess(c.img, c.pc, c.readyAt))
		}
	}
	for attempt := 0; horizon-now >= minWindow; attempt++ {
		last, limit := m.runWindows(now, horizon, budget)
		if last < limit && m.validate(now, horizon) && !w.rollBack {
			m.commit(stats)
			w.commits++
			w.span = min(2*w.span, maxSpan)
			return
		}
		m.undo()
		w.rollbacks++
		w.span = firstSpan
		if attempt > 0 || last < limit {
			break
		}
		horizon = limit // a core stopped early: retry up to its stop
	}
	w.resume = horizon
}

// runWindows runs every core that can open a window up to horizon. It
// returns the issue cycle of the last access logged and the earliest
// cycle at which a core that stopped early may issue its next one.
func (m *Machine) runWindows(now, horizon, budget int64) (last, limit int64) {
	w := m.win
	last, limit = -1, math.MaxInt64
	for i := range m.cores {
		c, wc := &m.cores[i], &w.cores[i]
		wc.log.Loads, wc.log.Stores, wc.ran = wc.log.Loads[:0], wc.log.Stores[:0], false
		if !windowAt(c) {
			continue
		}
		comp := c.img.comp
		comp.Prune(&wc.trail, now)
		wc.saved, wc.regs, wc.ran = wc.trail, c.cpu.Regs, true
		var faulted bool
		wc.pc, wc.at, faulted = comp.RunWindow(&c.cpu, c.pc, c.readyAt, horizon, budget, &wc.trail, &wc.log)
		for _, log := range [...][]machine.Access{wc.log.Loads, wc.log.Stores} {
			if n := len(log); n > 0 {
				last = max(last, log[n-1].Cycle)
			}
		}
		// A faulting core fails the run at its stop, and one at a SYNC or
		// HALT issues nothing before the others have stopped too.
		if !faulted {
			limit = min(limit, nextAccess(c.img, wc.pc, wc.at))
		}
	}
	return last, limit
}

// validate reports whether the round may commit, against the crossbar's
// own rule: a transfer arrives the cycle after it issues exactly when its
// bank's port is free by then and no earlier transfer in (cycle, core)
// order takes the port in that cycle. With every earlier one on time,
// that is: every access issues at or after its bank's FreeAt before the
// round, and no two share a bank and a cycle, which needs no merge of the
// cores' logs into that order. And no word one core wrote may be read or
// written by another: the stores go first, so each access meets the span
// of its bank's words other cores wrote and, inside it, the stamps of the
// written words (sharedWord). Accesses issue in [now, horizon).
func (m *Machine) validate(now, horizon int64) bool {
	w := m.win
	xbar := m.Crossbar()
	// taken has one bit per (bank, cycle) of the round.
	span := int((horizon - now + 63) / 64)
	if cap(w.taken) < len(w.cores)*span {
		w.taken = make([]uint64, len(w.cores)*span)
	}
	w.taken = w.taken[:len(w.cores)*span]
	clear(w.taken)
	for bank := range w.banks {
		w.banks[bank] = bankRound{free: xbar.FreeAt(bank), hi: -1}
	}
	// A stamp is the round's epoch and the core that wrote the word.
	w.epoch++
	if w.epoch >= 1<<24 {
		clear(w.stamps)
		w.epoch = 1
	}
	for core := range w.cores {
		for _, a := range w.cores[core].log.Stores {
			w.stamps[a.Addr] = w.epoch<<8 | uint32(core)
			w.banks[w.bankOf(a.Addr)].wrote(a.Addr, core)
		}
	}
	for core := range w.cores {
		for _, log := range [...][]machine.Access{w.cores[core].log.Loads, w.cores[core].log.Stores} {
			for i := range log {
				if !w.admit(log[i].Addr, log[i].Cycle, core, now, horizon, span) {
					return false
				}
			}
		}
	}
	return true
}

// bankOf is the bank addr lies in.
func (w *windows) bankOf(addr isa.Word) int {
	hi, _ := bits.Mul64(w.perBank, uint64(addr))
	return int(hi)
}

// admit takes one of core's accesses into the round's view of its bank
// and reports whether the round may still commit.
func (w *windows) admit(addr isa.Word, at int64, core int, now, horizon int64, span int) bool {
	bank, off := w.bankOf(addr), at-now
	b := &w.banks[bank]
	if at < b.free || off < 0 || at >= horizon {
		return false
	}
	word, bit := bank*span+int(off>>6), uint64(1)<<(off&63)
	if w.taken[word]&bit != 0 {
		return false
	}
	w.taken[word] |= bit
	b.n++
	b.last = max(b.last, at)
	return b.hi < 0 || addr < b.lo || addr > b.hi || b.core == core || !w.sharedWord(addr, core)
}

// bankRound is a round's view of one bank: the cycle its port is free
// from, how many accesses the round made and the cycle the last issued at
// (what the crossbar admits on commit), and the span of words written, by
// which core (-1 for more than one).
type bankRound struct {
	free    int64
	n, last int64
	lo, hi  isa.Word // hi < 0: nothing written
	core    int
}

// wrote records that core wrote addr.
func (b *bankRound) wrote(addr isa.Word, core int) {
	switch {
	case b.hi < 0:
		b.lo, b.hi, b.core = addr, addr, core
	case b.core != core:
		b.core = -1
	}
	b.lo, b.hi = min(b.lo, addr), max(b.hi, addr)
}

// sharedWord reports whether another core than core wrote addr in the
// round. Of two cores that wrote one word, the stamp names one, and the
// other's write finds it.
func (w *windows) sharedWord(addr isa.Word, core int) bool {
	s := w.stamps[addr]
	return s>>8 == w.epoch && int(s&0xff) != core
}

// commit credits each window's work, as a run-ahead's, and admits its
// accesses into the crossbar.
func (m *Machine) commit(stats *machine.Stats) {
	w := m.win
	for i := range m.cores {
		c, wc := &m.cores[i], &w.cores[i]
		if !wc.ran || wc.at == c.readyAt {
			continue
		}
		m.credit(stats, i, c.cpu.Stats, 1)
		c.pc, c.readyAt = wc.pc, wc.at
		stats.Cycles = max(stats.Cycles, wc.at)
	}
	for bank, b := range w.banks {
		if b.n > 0 {
			m.Crossbar().Admit(bank, b.n, b.last)
		}
	}
}

// undo rolls the round back: each core's stores in reverse, the last
// core's first, then its registers and trail.
func (m *Machine) undo() {
	w := m.win
	global := m.Global()
	for i := len(m.cores) - 1; i >= 0; i-- {
		wc := &w.cores[i]
		if !wc.ran {
			continue
		}
		for j := len(wc.log.Stores) - 1; j >= 0; j-- {
			a := &wc.log.Stores[j]
			global[a.Addr] = a.Old
		}
		m.cores[i].cpu.Regs = wc.regs
		wc.trail = wc.saved
	}
}
