package workload

import (
	"fmt"

	"repro/internal/isa"
)

// stencilProgram computes the periodic 3-point stencil out[i] = a[i-1] +
// a[i] + a[i+1] (indices mod the global length) over a local chunk of m
// elements at [0,m), writing to [m,2m). The halo elements come from the
// ring neighbours over the DP-DP network: every processor sends its first
// element left and its last element right — uniform control flow, so the
// same program runs in SIMD lockstep (IAP-II/IV) and on MIMD cores
// (even IMP sub-types). Requires procs >= 3 so the two neighbour queues
// are distinct, and m >= 2.
func stencilProgram(m, procs int) (isa.Program, error) {
	if m < 2 {
		return nil, fmt.Errorf("workload: stencil chunk must be >= 2 elements, got %d", m)
	}
	if procs < 3 {
		return nil, fmt.Errorf("workload: halo exchange needs >= 3 processors, got %d", procs)
	}
	src := fmt.Sprintf(`
        ldi  r0, 0           ; base of the local chunk
        lane r1
        ldi  r5, %d          ; procs
        addi r2, r1, %d      ; left = (lane-1+procs) mod procs
        rem  r2, r2, r5
        addi r3, r1, 1       ; right = (lane+1) mod procs
        rem  r3, r3, r5
        ld   r4, [r0+0]      ; a[0]
        send r4, r2          ; left neighbour's right halo
        ld   r7, [r0+%d]     ; a[m-1]
        send r7, r3          ; right neighbour's left halo
        recv r8, r2          ; my left halo  (left's a[m-1])
        recv r9, r3          ; my right halo (right's a[0])
        ld   r10, [r0+1]     ; a[1]
        add  r11, r8, r4     ; out[0] = halo + a[0] + a[1]
        add  r11, r11, r10
        st   r11, [r0+%d]
        ldi  r12, 1          ; i
        ldi  r13, %d         ; m-1
inner:  beq  r12, r13, tail
        addi r14, r12, -1
        ld   r10, [r14+0]    ; a[i-1]
        ld   r11, [r12+0]    ; a[i]
        addi r15, r12, 1
        ld   r4, [r15+0]     ; a[i+1]
        add  r10, r10, r11
        add  r10, r10, r4
        addi r14, r12, %d
        st   r10, [r14+0]    ; out[i]
        addi r12, r12, 1
        jmp  inner
tail:   ldi  r14, %d         ; m-2
        ld   r10, [r14+0]    ; a[m-2]
        add  r10, r10, r7    ; + a[m-1]
        add  r10, r10, r9    ; + right halo
        addi r14, r14, %d    ; out[m-1] at m + (m-1)
        st   r10, [r14+0]
        halt
`, procs, procs-1, m-1, m, m-1, m, m-2, m+1)
	return assemble(src)
}

// scanProgram computes a distributed inclusive prefix sum over procs cores:
// each core scans its local chunk of m elements at [0,m) into [m,2m), then
// core 0 collects the per-core totals in core order, answers each core with
// its exclusive offset, and the workers add the offset into their local
// scan. The role branch (coordinator vs worker) needs per-processor control
// flow: this program runs on IMP classes with a DP-DP switch and is exactly
// what a lockstep IAP cannot execute.
func scanProgram(m, procs int) (isa.Program, error) {
	if m < 1 {
		return nil, fmt.Errorf("workload: scan chunk must be >= 1 element, got %d", m)
	}
	if procs < 2 {
		return nil, fmt.Errorf("workload: distributed scan needs >= 2 processors, got %d", procs)
	}
	src := fmt.Sprintf(`
        lane r1
        ldi  r8, 0           ; running local sum
        ldi  r2, 0           ; i
        ldi  r3, %d          ; m
loc:    beq  r2, r3, roles
        ld   r4, [r2+0]
        add  r8, r8, r4
        addi r5, r2, %d
        st   r8, [r5+0]      ; out[i] = inclusive local scan
        addi r2, r2, 1
        jmp  loc
roles:  ldi  r6, 0
        bne  r1, r6, worker
        mov  r9, r8          ; coordinator: running global total
        ldi  r10, 1          ; next core
        ldi  r11, %d         ; procs
c0:     beq  r10, r11, fin   ; core 0's own offset is 0
        recv r13, r10        ; that core's local total
        send r9, r10         ; its exclusive offset
        add  r9, r9, r13
        addi r10, r10, 1
        jmp  c0
worker: send r8, r6          ; my total to the coordinator
        recv r14, r6         ; my exclusive offset
        ldi  r2, 0
wl:     beq  r2, r3, fin
        addi r5, r2, %d
        ld   r4, [r5+0]
        add  r4, r4, r14
        st   r4, [r5+0]
        addi r2, r2, 1
        jmp  wl
fin:    halt
`, m, m, procs, m)
	return assemble(src)
}

// matmulProgram computes C = A x B where this core owns `rows` rows of A
// (rows x k at local base 0), a full copy of B (k x n at base rows*k) and
// writes its C rows (rows x n) at base rows*k + k*n. All addressing is
// local, so the program runs on any IMP sub-type — replicating B is how a
// machine without shared memory (IMP-I) gets matmul at the price of
// duplicated storage.
func matmulProgram(rows, k, n int) (isa.Program, error) {
	if rows < 1 || k < 1 || n < 1 {
		return nil, fmt.Errorf("workload: matmul shape %dx%dx%d invalid", rows, k, n)
	}
	bBase := rows * k
	cBase := rows*k + k*n
	src := fmt.Sprintf(`
        ldi  r1, 0           ; i (row)
        ldi  r2, %d          ; rows
rowl:   beq  r1, r2, done
        ldi  r3, 0           ; j (col)
        ldi  r4, %d          ; n
coll:   beq  r3, r4, rowe
        ldi  r8, 0           ; acc
        ldi  r5, 0           ; t
        ldi  r6, %d          ; k
kl:     beq  r5, r6, ke
        muli r9, r1, %d      ; i*k
        add  r9, r9, r5
        ld   r10, [r9+0]     ; A[i][t]
        muli r11, r5, %d     ; t*n
        add  r11, r11, r3
        ld   r12, [r11+%d]   ; B[t][j]
        mul  r13, r10, r12
        add  r8, r8, r13
        addi r5, r5, 1
        jmp  kl
ke:     muli r9, r1, %d      ; i*n
        add  r9, r9, r3
        st   r8, [r9+%d]     ; C[i][j]
        addi r3, r3, 1
        jmp  coll
rowe:   addi r1, r1, 1
        jmp  rowl
done:   halt
`, rows, n, k, k, n, bBase, n, cBase)
	return assemble(src)
}

// matmulSharedProgram is matmulProgram for machines with the DP-DM
// crossbar: B lives once, in core 0's bank at global address bGlobal, and
// every core reads it through the memory crossbar (contention included).
// A rows and C rows stay in the core's own bank, addressed globally via the
// core's bank base (lane * bankWords).
func matmulSharedProgram(rows, k, n, bankWords, bGlobal int) (isa.Program, error) {
	if rows < 1 || k < 1 || n < 1 {
		return nil, fmt.Errorf("workload: matmul shape %dx%dx%d invalid", rows, k, n)
	}
	if bankWords < rows*k+rows*n {
		return nil, fmt.Errorf("workload: bank of %d words cannot hold A (%d) and C (%d)", bankWords, rows*k, rows*n)
	}
	src := fmt.Sprintf(`
        lane r15
        muli r15, r15, %d    ; my bank base
        ldi  r1, 0           ; i
        ldi  r2, %d          ; rows
rowl:   beq  r1, r2, done
        ldi  r3, 0           ; j
        ldi  r4, %d          ; n
coll:   beq  r3, r4, rowe
        ldi  r8, 0           ; acc
        ldi  r5, 0           ; t
        ldi  r6, %d          ; k
kl:     beq  r5, r6, ke
        muli r9, r1, %d      ; i*k
        add  r9, r9, r5
        add  r9, r9, r15
        ld   r10, [r9+0]     ; A[i][t] from my bank
        muli r11, r5, %d     ; t*n
        add  r11, r11, r3
        ld   r12, [r11+%d]   ; B[t][j] from the shared bank
        mul  r13, r10, r12
        add  r8, r8, r13
        addi r5, r5, 1
        jmp  kl
ke:     muli r9, r1, %d      ; i*n
        add  r9, r9, r3
        add  r9, r9, r15
        st   r8, [r9+%d]     ; C[i][j] into my bank
        addi r3, r3, 1
        jmp  coll
rowe:   addi r1, r1, 1
        jmp  rowl
done:   halt
`, bankWords, rows, n, k, k, n, bGlobal, n, rows*k)
	return assemble(src)
}

// firProgram computes the length-T FIR y[i] = sum_t h[t] * x[i+t] over a
// local chunk: x with T-1 ghost samples at [0, m+T-1), taps at
// [m+T-1, m+T-1+T), output at [m+2T-1, m+2T-1+m). Ghost samples are
// preloaded by the host (overlapped sharding), so the kernel needs no
// communication and runs on every instruction-flow class including IAP-I.
func firProgram(m, taps int) (isa.Program, error) {
	if m < 1 {
		return nil, fmt.Errorf("workload: FIR chunk must be >= 1 element, got %d", m)
	}
	if taps < 1 {
		return nil, fmt.Errorf("workload: FIR needs >= 1 tap, got %d", taps)
	}
	hBase := m + taps - 1
	yBase := hBase + taps
	src := fmt.Sprintf(`
        ldi  r1, 0           ; i
        ldi  r2, %d          ; m
outer:  beq  r1, r2, done
        ldi  r8, 0           ; acc
        ldi  r3, 0           ; t
        ldi  r4, %d          ; taps
tapl:   beq  r3, r4, tape
        add  r5, r1, r3
        ld   r6, [r5+0]      ; x[i+t]
        ld   r7, [r3+%d]     ; h[t]
        mul  r9, r6, r7
        add  r8, r8, r9
        addi r3, r3, 1
        jmp  tapl
tape:   st   r8, [r1+%d]     ; y[i]
        addi r1, r1, 1
        jmp  outer
done:   halt
`, m, taps, hBase, yBase)
	return assemble(src)
}
