package simd

import (
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/taxonomy"
)

// This file is the compiled backend's vectorized lane path: one closure per
// decoded op that steps that op across every lane by iterating directly
// over the register-file and bank slices, instead of calling the threaded
// chain once per lane through an Env of five closures. Ops the vector path
// does not cover (crossbar memory, DP-DP exchanges, DIV/REM faults) are
// left nil and fall back to the per-lane threaded chain; traced runs always
// take the per-lane path, whose per-instruction events are part of the
// equivalence contract.

// vecFn steps one op across all lanes. It updates stats for every lane
// that retired the op and m.finish for memory completions; on a guest
// fault it returns the faulting lane and the same error the per-lane Env
// would have produced, with earlier lanes already accounted.
type vecFn func(m *Machine, stats *machine.Stats) (lane int, err error)

// compileVec lowers the broadcast program into the vector path. Entries
// stay nil where the per-lane path must run.
func (m *Machine) compileVec() []vecFn {
	vec := make([]vecFn, len(m.dec))
	directMem := m.cfg.Class.Links[taxonomy.SiteDPDM] == taxonomy.LinkDirect
	for pc := range m.dec {
		vec[pc] = compileVecOp(&m.dec[pc], directMem)
	}
	return vec
}

// lanesALU wraps a per-lane register transform into a vecFn with batched
// instruction/ALU accounting.
func lanesALU(isALU bool, apply func(r *machine.Regs)) vecFn {
	return func(m *Machine, stats *machine.Stats) (int, error) {
		for l := range m.regs {
			apply(&m.regs[l])
		}
		n := int64(len(m.regs))
		stats.Instructions += n
		if isALU {
			stats.ALUOps += n
		}
		return 0, nil
	}
}

func compileVecOp(d *isa.DecodedOp, directMem bool) vecFn {
	rd, ra, rb, imm := d.Rd, d.Ra, d.Rb, d.Imm
	switch d.Op {
	case isa.OpNop:
		return lanesALU(false, func(*machine.Regs) {})
	case isa.OpLdi:
		return lanesALU(false, func(r *machine.Regs) { r[rd] = imm })
	case isa.OpMov:
		return lanesALU(false, func(r *machine.Regs) { r[rd] = r[ra] })
	case isa.OpAdd:
		return lanesALU(true, func(r *machine.Regs) { r[rd] = r[ra] + r[rb] })
	case isa.OpSub:
		return lanesALU(true, func(r *machine.Regs) { r[rd] = r[ra] - r[rb] })
	case isa.OpMul:
		return lanesALU(true, func(r *machine.Regs) { r[rd] = r[ra] * r[rb] })
	case isa.OpAnd:
		return lanesALU(true, func(r *machine.Regs) { r[rd] = r[ra] & r[rb] })
	case isa.OpOr:
		return lanesALU(true, func(r *machine.Regs) { r[rd] = r[ra] | r[rb] })
	case isa.OpXor:
		return lanesALU(true, func(r *machine.Regs) { r[rd] = r[ra] ^ r[rb] })
	case isa.OpShl:
		return lanesALU(true, func(r *machine.Regs) { r[rd] = r[ra] << uint(r[rb]&63) })
	case isa.OpShr:
		return lanesALU(true, func(r *machine.Regs) { r[rd] = r[ra] >> uint(r[rb]&63) })
	case isa.OpSlt:
		return lanesALU(true, func(r *machine.Regs) {
			if r[ra] < r[rb] {
				r[rd] = 1
			} else {
				r[rd] = 0
			}
		})
	case isa.OpSeq:
		return lanesALU(true, func(r *machine.Regs) {
			if r[ra] == r[rb] {
				r[rd] = 1
			} else {
				r[rd] = 0
			}
		})
	case isa.OpMin:
		return lanesALU(true, func(r *machine.Regs) {
			if r[rb] < r[ra] {
				r[rd] = r[rb]
			} else {
				r[rd] = r[ra]
			}
		})
	case isa.OpMax:
		return lanesALU(true, func(r *machine.Regs) {
			if r[rb] > r[ra] {
				r[rd] = r[rb]
			} else {
				r[rd] = r[ra]
			}
		})
	case isa.OpAddi:
		return lanesALU(true, func(r *machine.Regs) { r[rd] = r[ra] + imm })
	case isa.OpMuli:
		return lanesALU(true, func(r *machine.Regs) { r[rd] = r[ra] * imm })
	case isa.OpLane:
		return func(m *Machine, stats *machine.Stats) (int, error) {
			for l := range m.regs {
				m.regs[l][rd] = isa.Word(l)
			}
			stats.Instructions += int64(len(m.regs))
			return 0, nil
		}
	case isa.OpLd:
		if !directMem {
			return nil // crossbar loads keep the contended per-lane path
		}
		return func(m *Machine, stats *machine.Stats) (int, error) {
			bw := isa.Word(m.cfg.BankWords)
			for l := range m.regs {
				r := &m.regs[l]
				addr := r[ra] + imm
				if addr < 0 || addr >= bw {
					stats.Instructions += int64(l)
					stats.MemReads += int64(l)
					m.bumpFinish(m.Now + 2)
					_, _, err := m.Resolve(l, addr)
					return l, err
				}
				r[rd] = m.Bank(l)[addr]
			}
			n := int64(len(m.regs))
			stats.Instructions += n
			stats.MemReads += n
			m.bumpFinish(m.Now + 2)
			return 0, nil
		}
	case isa.OpSt:
		if !directMem {
			return nil
		}
		return func(m *Machine, stats *machine.Stats) (int, error) {
			bw := isa.Word(m.cfg.BankWords)
			for l := range m.regs {
				r := &m.regs[l]
				addr := r[ra] + imm
				if addr < 0 || addr >= bw {
					stats.Instructions += int64(l)
					stats.MemWrites += int64(l)
					m.bumpFinish(m.Now + 2)
					_, _, err := m.Resolve(l, addr)
					return l, err
				}
				m.Bank(l)[addr] = r[rb]
			}
			n := int64(len(m.regs))
			stats.Instructions += n
			stats.MemWrites += n
			m.bumpFinish(m.Now + 2)
			return 0, nil
		}
	default:
		// DIV/REM (per-lane faults), SEND/RECV (lane network and mailboxes)
		// and everything control-flow run on the per-lane or scalar paths.
		return nil
	}
}

// bumpFinish raises the in-flight instruction's completion cycle, exactly
// like a direct-switch bank access.
func (m *Machine) bumpFinish(to int64) {
	if to > m.Finish {
		m.Finish = to
	}
}
