// Package pooledrelease is the fixture for the pooledrelease analyzer:
// seeded leaks alongside the ownership idioms the analyzer must accept.
package pooledrelease

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/uniproc"
)

// leakOnSecondReturn: the own error path of an acquisition is fine, but a
// later return that drops the live bank is a leak.
func leakOnSecondReturn(words int) (machine.Memory, error) {
	bank, err := machine.GetMemory(words)
	if err != nil {
		return nil, err // own failure check: bank was never live
	}
	if words > 1<<20 {
		return nil, fmt.Errorf("too big") // want "return leaks machine.GetMemory"
	}
	return bank, nil
}

// discard: an acquisition whose result is dropped can never be released.
func discard() {
	machine.GetRegs(8) // want "result of machine.GetRegs is discarded"
}

// deferInLoop: the deferred release only runs at function exit, so the
// pool drains for the whole loop (the satellite edge case).
func deferInLoop(n, words int) error {
	for i := 0; i < n; i++ {
		bank, err := machine.GetMemory(words)
		if err != nil {
			return err
		}
		defer machine.PutMemory(bank) // want "deferred release .* acquired in this loop"
	}
	return nil
}

// traceLeak: the early return drops the acquired trace.
func traceLeak(fail bool) error {
	tr := obs.AcquireTrace()
	if fail {
		return fmt.Errorf("boom") // want "return leaks obs.AcquireTrace"
	}
	obs.ReleaseTrace(tr)
	return nil
}

// allowedLeak: a lint:allow comment with a reason suppresses the finding.
func allowedLeak(fail bool) error {
	tr := obs.AcquireTrace()
	if fail {
		//lint:allow pooledrelease fixture: trace deliberately outlives the call
		return fmt.Errorf("boom")
	}
	obs.ReleaseTrace(tr)
	return nil
}

// holder owns pooled banks, released together (the simulator pattern).
type holder struct {
	banks []machine.Memory
}

// Release returns every bank to the pool.
func (h *holder) Release() {
	for i := range h.banks {
		machine.PutMemory(h.banks[i])
		h.banks[i] = nil
	}
}

// newHolder: the disarmable deferred cleanup covers every error return,
// and the success return hands ownership to the caller.
func newHolder(n, words int) (*holder, error) {
	h := &holder{banks: make([]machine.Memory, n)}
	built := false
	defer func() {
		if !built {
			h.Release()
		}
	}()
	for i := range h.banks {
		bank, err := machine.GetMemory(words)
		if err != nil {
			return nil, err
		}
		h.banks[i] = bank
	}
	built = true
	return h, nil
}

// fill: ownership transfers into a caller-owned value, which outlives the
// call; nothing to release here.
func fill(h *holder, words int) error {
	bank, err := machine.GetMemory(words)
	if err != nil {
		return err
	}
	h.banks[0] = bank
	return nil
}

// banksLeak: a shared data side owns pooled banks until its Release, so
// an early return that drops it is a leak.
func banksLeak(procs, words int, fail bool) error {
	banks, err := machine.NewBanks(machine.BankConfig{Pkg: "fixture", Noun: "proc", Procs: procs, BankWords: words})
	if err != nil {
		return err
	}
	if fail {
		return fmt.Errorf("boom") // want "return leaks machine.NewBanks"
	}
	banks.Release()
	return nil
}

// deferredPut: the plain defer-release idiom for a straight-line user.
func deferredPut(words int) (int64, error) {
	bank, err := machine.GetMemory(words)
	if err != nil {
		return 0, err
	}
	defer machine.PutMemory(bank)
	var sum int64
	for _, w := range bank {
		sum += int64(w)
	}
	return sum, nil
}

// constructorLeak: a simulator constructor is an acquisition too — its
// machine owns pooled banks and register files until Release.
func constructorLeak(prog isa.Program, fail bool) error {
	m, err := uniproc.New(uniproc.Config{MemWords: 8}, prog)
	if err != nil {
		return err
	}
	if fail {
		return fmt.Errorf("boom") // want "return leaks uniproc.New"
	}
	m.Release()
	return nil
}

// constructorDiscard: building a machine only to check the error drops
// its banks on the floor.
func constructorDiscard(prog isa.Program) error {
	if _, err := uniproc.New(uniproc.Config{MemWords: 8}, prog); err != nil { // want "result of uniproc.New is discarded"
		return err
	}
	return nil
}

// constructorDeferred: the defer-release idiom covers every later return.
func constructorDeferred(prog isa.Program) (int64, error) {
	m, err := uniproc.New(uniproc.Config{MemWords: 8}, prog)
	if err != nil {
		return 0, err
	}
	defer m.Release()
	stats, err := m.Run()
	if err != nil {
		return 0, err
	}
	return stats.Cycles, nil
}
