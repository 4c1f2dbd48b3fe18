package workload

import (
	"fmt"
	"slices"

	"repro/internal/isa"
	"repro/internal/memo"
)

// This file generates the ISA programs the kernels run. The generators are
// shared across machine classes: the same vector-add inner loop serves the
// uni-processor with the full problem, a SIMD lane with its chunk, and an
// SPMD multi-processor core with its shard — which is itself a taxonomy
// point (the instruction-flow classes share one execution model and differ
// only in their switch structure).

// assembleMemoSize bounds the assembly memo. The kernels render a few
// hundred distinct program texts over every class, cell and served shape.
const assembleMemoSize = 1024

// assembled memoizes assembly on the program text.
var assembled = memo.New[string, isa.Program](assembleMemoSize)

// assemble is isa.Assemble memoized on the source text: every builder that
// renders the same text gets the same Program, so the result is read-only
// (its capacity is clipped, so even an append copies). Errors are not
// memoized.
func assemble(src string) (isa.Program, error) {
	return assembled.Get(src, func() (isa.Program, error) {
		p, err := isa.Assemble(src)
		return slices.Clip(p), err
	})
}

// VerifyAssembled checks the assembly memo's read-only contract: every
// entry must still be what its text assembles to. A caller that writes
// through a shared program breaks it; VerifyAssembled reports the first
// such entry.
func VerifyAssembled() error {
	var err error
	assembled.Each(func(src string, p isa.Program) bool {
		if fresh, aerr := isa.Assemble(src); aerr != nil || fresh.Key() != p.Key() {
			err = fmt.Errorf("workload: an assembled program of %d instructions no longer matches its text:%s", len(p), src)
		}
		return err == nil
	})
	return err
}

// VecAddProgram adds two m-element vectors living at [0,m) and [m,2m) into
// [2m,3m) of the local address space: the vecadd loop every class with
// local addressing runs.
func VecAddProgram(m int) (isa.Program, error) {
	if m < 1 {
		return nil, fmt.Errorf("workload: vector length must be >= 1, got %d", m)
	}
	src := fmt.Sprintf(`
        ldi  r1, 0          ; i
        ldi  r2, %d         ; m
loop:   beq  r1, r2, done
        ld   r3, [r1+0]     ; a[i]
        addi r4, r1, %d
        ld   r5, [r4+0]     ; b[i]
        add  r6, r3, r5
        addi r7, r1, %d
        st   r6, [r7+0]     ; c[i]
        addi r1, r1, 1
        jmp  loop
done:   halt
`, m, m, 2*m)
	return assemble(src)
}

// dotProgram computes the dot product of the m-element vectors at [0,m)
// and [m,2m) into register r8 and stores it at address 2m, then halts.
// Used standalone on the uni-processor.
func dotProgram(m int) (isa.Program, error) {
	if m < 1 {
		return nil, fmt.Errorf("workload: vector length must be >= 1, got %d", m)
	}
	src := fmt.Sprintf(`
        ldi  r1, 0          ; i
        ldi  r2, %d         ; m
        ldi  r8, 0          ; acc
loop:   beq  r1, r2, done
        ld   r3, [r1+0]
        addi r4, r1, %d
        ld   r5, [r4+0]
        mul  r6, r3, r5
        add  r8, r8, r6
        addi r1, r1, 1
        jmp  loop
done:   ldi  r9, %d
        st   r8, [r9+0]
        halt
`, m, m, 2*m)
	return assemble(src)
}

// dotButterflyProgram computes a lane/core-local dot partial over the local
// chunk and then all-reduces it across `procs` processors with a
// recursive-doubling butterfly over the DP-DP network; every processor ends
// with the full dot product and stores it at address 2m of its bank. procs
// must be a power of two. The identical program runs on every processor —
// the SPMD shape both IAP-II and IMP-II can execute. bankWords == 0 selects
// local (direct DP-DM) addressing; otherwise accesses are offset by the
// processor's global bank base.
func dotButterflyProgram(m, procs, bankWords int) (isa.Program, error) {
	if m < 1 {
		return nil, fmt.Errorf("workload: chunk length must be >= 1, got %d", m)
	}
	if !isPow2(procs) {
		return nil, fmt.Errorf("workload: butterfly reduction needs a power-of-two processor count, got %d", procs)
	}
	if bankWords != 0 && bankWords < 2*m+1 {
		return nil, fmt.Errorf("workload: bank of %d words cannot hold 2x%d elements plus the result", bankWords, m)
	}
	src := fmt.Sprintf(`
        lane r10            ; my index
        muli r9, r10, %d    ; my bank base (0 under local addressing)
        ldi  r1, 0          ; i
        ldi  r2, %d         ; m
        ldi  r8, 0          ; acc
loop:   beq  r1, r2, done
        add  r4, r9, r1
        ld   r3, [r4+0]
        ld   r5, [r4+%d]
        mul  r6, r3, r5
        add  r8, r8, r6
        addi r1, r1, 1
        jmp  loop
done:   ldi  r11, 1         ; distance d
        ldi  r12, %d        ; procs
red:    bge  r11, r12, out  ; while d < procs
        xor  r13, r10, r11  ; partner = me XOR d
        send r8, r13
        recv r14, r13
        add  r8, r8, r14
        add  r11, r11, r11  ; d *= 2
        jmp  red
out:    addi r9, r9, %d
        st   r8, [r9+0]
        halt
`, bankWords, m, m, procs, 2*m)
	return assemble(src)
}

// dotPartialProgram computes a processor-local dot partial over the local
// chunk at [0,m) x [m,2m) and stores it at address 2m, then halts — no
// cross-processor reduction at all. It is the dot strategy for classes
// without a DP-DP switch, where the all-reduce is architecturally
// impossible (Table I) and the host must gather the partials instead.
// bankWords == 0 selects local (direct DP-DM) addressing; otherwise
// accesses are offset by the processor's global bank base.
func dotPartialProgram(m, bankWords int) (isa.Program, error) {
	if m < 1 {
		return nil, fmt.Errorf("workload: chunk length must be >= 1, got %d", m)
	}
	if bankWords != 0 && bankWords < 2*m+1 {
		return nil, fmt.Errorf("workload: bank of %d words cannot hold 2x%d elements plus the result", bankWords, m)
	}
	src := fmt.Sprintf(`
        lane r10            ; my index
        muli r9, r10, %d    ; my bank base (0 under local addressing)
        ldi  r1, 0          ; i
        ldi  r2, %d         ; m
        ldi  r8, 0          ; acc
loop:   beq  r1, r2, done
        add  r4, r9, r1
        ld   r3, [r4+0]
        ld   r5, [r4+%d]
        mul  r6, r3, r5
        add  r8, r8, r6
        addi r1, r1, 1
        jmp  loop
done:   addi r9, r9, %d
        st   r8, [r9+0]
        halt
`, bankWords, m, m, 2*m)
	return assemble(src)
}

// vecAddProgramGlobal is VecAddProgram for machines whose DP-DM switch is a
// crossbar: addresses are global, so each processor offsets its accesses by
// its own bank base (index * bankWords).
func vecAddProgramGlobal(m, bankWords int) (isa.Program, error) {
	if m < 1 {
		return nil, fmt.Errorf("workload: vector length must be >= 1, got %d", m)
	}
	if bankWords < 3*m {
		return nil, fmt.Errorf("workload: bank of %d words cannot hold 3x%d elements", bankWords, m)
	}
	src := fmt.Sprintf(`
        lane r9
        muli r9, r9, %d     ; my bank base
        ldi  r1, 0          ; i
        ldi  r2, %d         ; m
loop:   beq  r1, r2, done
        add  r10, r9, r1
        ld   r3, [r10+0]    ; a[i]
        ld   r5, [r10+%d]   ; b[i]
        add  r6, r3, r5
        st   r6, [r10+%d]   ; c[i]
        addi r1, r1, 1
        jmp  loop
done:   halt
`, bankWords, m, m, 2*m)
	return assemble(src)
}

// divergentProgram computes lane+1 by looping lane+1 times and storing the
// count at local address 0. On a machine with per-processor control flow
// (IMP) every processor gets its own answer; on a lockstep array processor
// the single instruction stream follows lane 0's bound, which is exactly
// the §III.B reason an IAP cannot substitute an IMP.
func divergentProgram() isa.Program {
	return isa.MustAssemble(`
        lane r1
        addi r2, r1, 1      ; bound = lane+1
        ldi  r0, 0
        ldi  r3, 0
        ldi  r4, 0
loop:   addi r4, r4, 1
        addi r3, r3, 1
        bne  r3, r2, loop
        st   r4, [r0+0]
        halt
`)
}
