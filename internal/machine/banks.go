package machine

import (
	"fmt"

	"repro/internal/interconnect"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/taxonomy"
)

// This file is the data side the sharded simulators (internal/simd,
// internal/mimd, internal/spatial, internal/dataflow) share: one pooled
// data-memory bank per processor behind the DP-DM switch, and the DP-DP
// network with its per-pair mailboxes. Table I gives those four machine
// families the same DP-DM (direct or crossbar) and DP-DP (none or
// crossbar) switch kinds, so the address rule, the traversal cost and the
// message protocol live here once; each simulator keeps only its
// scheduler.

// BankConfig describes the data side of one sharded machine.
type BankConfig struct {
	// Pkg and Noun name the simulator and its processors in error texts,
	// for example "simd" and "lane".
	Pkg, Noun string
	// Procs is the number of data processors, each with its own bank.
	Procs int
	// BankWords is the size of each bank in words.
	BankWords int
	// DPDM is LinkDirect (each processor addresses only its own bank) or
	// LinkCrossbar (one global address space over all banks, contended).
	DPDM taxonomy.Link
	// DPDP is LinkNone or LinkCrossbar; a crossbar carries SEND/RECV.
	DPDP taxonomy.Link
	// BusDPDP realizes the DP-DP crossbar as one shared bus: the taxonomy
	// class is unchanged, only the timing differs.
	BusDPDP bool
	// Tracer, when non-nil, observes both switches' stalls and is stamped
	// on every processor's Env. Nil disables tracing.
	Tracer obs.Tracer
}

// Banks is the shared data side of a sharded machine. The simulator's
// scheduler sets Now and Finish before each processor step; memory and
// network accesses raise Finish to their completion cycle, and the
// scheduler reads it after the step.
type Banks struct {
	// Now is the issue cycle of the step in flight.
	Now int64
	// Finish is the completion cycle of the step in flight.
	Finish int64

	cfg   BankConfig
	banks []Memory
	// global backs every bank, in processor order, under a DP-DM
	// crossbar: the one address space its processors address. Nil under
	// direct DP-DM, where each bank is its own allocation.
	global Memory
	// memNet carries cross-bank accesses; nil for direct DP-DM. xbar is
	// the crossbar it wraps, which takes the batches a multi-processor's
	// optimistic rounds admit: they waited for no port, so they owe the
	// tracer no stall.
	memNet interconnect.Network
	xbar   *interconnect.Crossbar
	// msgNet carries SEND/RECV; nil without a DP-DP switch.
	msgNet interconnect.Network
	// mail[src][dst] is the in-order queue of words sent from src to dst.
	mail [][][]message
	// envs holds one prebuilt environment per processor; its closures
	// read Now and Finish, so they are built once per machine.
	envs []Env
}

// message is one DP-DP word in flight.
type message struct {
	val         isa.Word
	availableAt int64
}

// NewBanks takes cfg.Procs banks from the pool and builds the DP-DM
// crossbar and the DP-DP network the switch kinds call for. Call Release
// to return the banks.
func NewBanks(cfg BankConfig) (*Banks, error) {
	b := &Banks{cfg: cfg}
	if cfg.DPDM == taxonomy.LinkCrossbar {
		net, err := interconnect.NewCrossbar(cfg.Procs)
		if err != nil {
			return nil, err
		}
		b.xbar = net
		b.memNet = obs.ObserveNetwork(net, cfg.Tracer)
	}
	if cfg.DPDP == taxonomy.LinkCrossbar {
		var net interconnect.Network
		var err error
		if cfg.BusDPDP {
			net, err = interconnect.NewBus(cfg.Procs)
		} else {
			net, err = interconnect.NewCrossbar(cfg.Procs)
		}
		if err != nil {
			return nil, err
		}
		b.msgNet = obs.ObserveNetwork(net, cfg.Tracer)
		b.mail = make([][][]message, cfg.Procs)
		for i := range b.mail {
			b.mail[i] = make([][]message, cfg.Procs)
		}
	}
	b.banks = make([]Memory, cfg.Procs)
	if b.xbar != nil {
		global, err := GetMemory(cfg.Procs * cfg.BankWords)
		if err != nil {
			return nil, err
		}
		b.global = global
		for i := range b.banks {
			lo, hi := i*cfg.BankWords, (i+1)*cfg.BankWords
			b.banks[i] = global[lo:hi:hi]
		}
	}
	for i := range b.banks {
		if b.banks[i] != nil {
			continue
		}
		bank, err := GetMemory(cfg.BankWords)
		if err != nil {
			b.Release()
			return nil, err
		}
		b.banks[i] = bank
	}
	b.envs = make([]Env, cfg.Procs)
	for p := range b.envs {
		b.envs[p] = b.env(p)
	}
	return b, nil
}

// Release returns the banks to the pool. The owning machine must not be
// used afterwards; a second Release does nothing.
func (b *Banks) Release() {
	if b.global != nil {
		PutMemory(b.global)
		b.global = nil
		clear(b.banks)
		return
	}
	for i := range b.banks {
		PutMemory(b.banks[i])
		b.banks[i] = nil
	}
}

// LoadBank copies vals into processor p's bank at base (bank-local
// addressing).
func (b *Banks) LoadBank(p, base int, vals []isa.Word) error {
	if err := b.checkProc(p); err != nil {
		return err
	}
	return b.banks[p].CopyIn(base, vals)
}

// ReadBank reads n words from processor p's bank at base.
func (b *Banks) ReadBank(p, base, n int) ([]isa.Word, error) {
	if err := b.checkProc(p); err != nil {
		return nil, err
	}
	return b.banks[p].CopyOut(base, n)
}

func (b *Banks) checkProc(p int) error {
	if p < 0 || p >= b.cfg.Procs {
		return fmt.Errorf("%s: %s %d out of range [0,%d)", b.cfg.Pkg, b.cfg.Noun, p, b.cfg.Procs)
	}
	return nil
}

// Bank returns processor p's bank for a simulator's direct-addressing
// fast path, which must apply Resolve's rule itself.
func (b *Banks) Bank(p int) Memory { return b.banks[p] }

// MemNet returns the DP-DM crossbar, nil under direct DP-DM.
func (b *Banks) MemNet() interconnect.Network { return b.memNet }

// Global returns the one address space a DP-DM crossbar gives its
// processors: every bank, in processor order, so global address a is word
// a%BankWords of bank a/BankWords. It is nil under direct DP-DM.
func (b *Banks) Global() Memory { return b.global }

// Crossbar returns the DP-DM crossbar model itself, without the tracer
// MemNet reports its stalls to; nil under direct DP-DM.
func (b *Banks) Crossbar() *interconnect.Crossbar { return b.xbar }

// Resolve maps processor p's address to a (bank, offset) pair under the
// DP-DM kind: its own bank under direct wiring, one global address space
// over all banks under a crossbar.
func (b *Banks) Resolve(p int, addr isa.Word) (bank int, off isa.Word, err error) {
	words := isa.Word(b.cfg.BankWords)
	if b.memNet == nil {
		if addr < 0 || addr >= words {
			return 0, 0, fmt.Errorf("%s: %s %d address %d outside its bank of %d words (DP-DM is direct)",
				b.cfg.Pkg, b.cfg.Noun, p, addr, b.cfg.BankWords)
		}
		return p, addr, nil
	}
	total := words * isa.Word(b.cfg.Procs)
	if addr < 0 || addr >= total {
		return 0, 0, fmt.Errorf("%s: %s %d global address %d outside %d words", b.cfg.Pkg, b.cfg.Noun, p, addr, total)
	}
	return int(addr / words), addr % words, nil
}

// Load reads addr for processor p at cycle Now, charging the DP-DM
// traversal to Finish.
func (b *Banks) Load(p int, addr isa.Word) (isa.Word, error) {
	bank, off, err := b.Resolve(p, addr)
	if err != nil {
		return 0, err
	}
	b.traverse(p, bank)
	return b.banks[bank].Load(off)
}

// Store writes val to addr for processor p at cycle Now, charging the
// DP-DM traversal to Finish.
func (b *Banks) Store(p int, addr, val isa.Word) error {
	bank, off, err := b.Resolve(p, addr)
	if err != nil {
		return err
	}
	b.traverse(p, bank)
	return b.banks[bank].Store(off, val)
}

// traverse charges one DP-DM traversal from p to bank: one fixed cycle on
// direct wiring, a contended crossbar transfer on a crossbar.
func (b *Banks) traverse(p, bank int) {
	if b.memNet == nil {
		b.raise(b.Now + 2)
		return
	}
	arrival, err := b.memNet.Transfer(b.Now, p, bank)
	if err != nil {
		// Crossbars connect all ports; Transfer only fails on range
		// errors, which Resolve already excluded.
		panic(fmt.Sprintf("%s: internal memory network error: %v", b.cfg.Pkg, err))
	}
	b.raise(arrival + 1)
}

func (b *Banks) raise(to int64) {
	if to > b.Finish {
		b.Finish = to
	}
}

// Ready reports whether processor p can receive from peer at cycle now:
// the oldest word peer sent it has arrived. It needs a DP-DP switch, and
// is an error if peer does not exist.
func (b *Banks) Ready(p, peer int, now int64) (bool, error) {
	if peer < 0 || peer >= b.cfg.Procs {
		return false, fmt.Errorf("%s: %s %d receives from nonexistent %s %d", b.cfg.Pkg, b.cfg.Noun, p, b.cfg.Noun, peer)
	}
	q := b.mail[peer][p]
	return len(q) > 0 && q[0].availableAt <= now, nil
}

// send queues val from p to peer over the DP-DP network at cycle Now.
func (b *Banks) send(p, peer int, val isa.Word) error {
	if peer < 0 || peer >= b.cfg.Procs {
		return fmt.Errorf("%s: %s %d sends to nonexistent %s %d", b.cfg.Pkg, b.cfg.Noun, p, b.cfg.Noun, peer)
	}
	arrival, err := b.msgNet.Transfer(b.Now, p, peer)
	if err != nil {
		return err
	}
	b.raise(arrival + 1)
	b.mail[p][peer] = append(b.mail[p][peer], message{val: val, availableAt: arrival})
	return nil
}

// recv dequeues the oldest word peer sent p, or ErrWouldBlock if it has
// not arrived by Now.
func (b *Banks) recv(p, peer int) (isa.Word, error) {
	ready, err := b.Ready(p, peer, b.Now)
	if err != nil {
		return 0, err
	}
	if !ready {
		return 0, ErrWouldBlock
	}
	q := b.mail[peer][p]
	b.mail[peer][p] = q[1:]
	return q[0].val, nil
}

// Env returns processor p's environment: Load and Store through the DP-DM
// switch, SendTo and RecvFrom when there is a DP-DP switch. The scheduler
// sets its Now per step; a simulator may add a Barrier.
func (b *Banks) Env(p int) *Env { return &b.envs[p] }

func (b *Banks) env(p int) Env {
	env := Env{Lane: isa.Word(p), Tracer: b.cfg.Tracer, Track: int32(p)}
	env.Load = func(addr isa.Word) (isa.Word, error) { return b.Load(p, addr) }
	env.Store = func(addr, val isa.Word) error { return b.Store(p, addr, val) }
	if b.msgNet != nil {
		env.SendTo = func(peer int, val isa.Word) error { return b.send(p, peer, val) }
		env.RecvFrom = func(peer int) (isa.Word, error) { return b.recv(p, peer) }
	}
	return env
}

// ConflictCycles sums the cycles both switches lost to contention.
func (b *Banks) ConflictCycles() int64 {
	var cycles int64
	if b.memNet != nil {
		cycles += b.memNet.Stats().ConflictCycles
	}
	if b.msgNet != nil {
		cycles += b.msgNet.Stats().ConflictCycles
	}
	return cycles
}
