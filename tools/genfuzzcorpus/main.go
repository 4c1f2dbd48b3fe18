// Command genfuzzcorpus regenerates the checked-in fuzz seed corpora under
// internal/*/testdata/fuzz. The corpora make the fuzz targets' interesting
// inputs part of every plain `go test ./...` run; rerun this after changing
// a serialization format so the seeds stay valid.
//
// Run from the repository root:
//
//	go run ./tools/genfuzzcorpus
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"

	"repro/internal/fabric"
	"repro/internal/flexbench"
	"repro/internal/isa"
)

// writeSeed writes one corpus entry in the `go test fuzz v1` encoding:
// one Go-syntax literal per fuzz argument.
func writeSeed(dir, name string, literals ...string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	body := "go test fuzz v1\n"
	for _, l := range literals {
		body += l + "\n"
	}
	if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", filepath.Join(dir, name))
}

func str(s string) string      { return fmt.Sprintf("string(%q)", s) }
func bytesLit(b []byte) string { return fmt.Sprintf("[]byte(%q)", b) }

func main() {
	// internal/isa: assembler sources covering every operand shape, plus
	// raw instruction words for the binary decoder.
	asmDir := filepath.Join("internal", "isa", "testdata", "fuzz", "FuzzAsmRoundTrip")
	writeSeed(asmDir, "alu", str("add r1, r2, r3\nsub r4, r5, r6\nmul r7, r8, r9\nhalt"))
	writeSeed(asmDir, "label_loop", str("loop: addi r1, r1, -1\nbne r1, r0, loop\nhalt"))
	writeSeed(asmDir, "memory", str("ld r3, [r4+8]\nst r3, [r4-8]\nld r5, [r6]\nhalt"))
	writeSeed(asmDir, "comm", str("lane r1\nsend r1, r2\nrecv r3, r2\nsync\nhalt"))
	writeSeed(asmDir, "immediates", str("ldi r1, 0x10\nmuli r2, r1, -4\naddi r3, r2, +7\njmp +0\nhalt"))
	writeSeed(asmDir, "comments", str("; header\nstart: nop ; pad\n  mov r1, r2\n\nbeq r1, r2, start\nhalt"))

	decDir := filepath.Join("internal", "isa", "testdata", "fuzz", "FuzzEncodeDecode")
	for name, ins := range map[string]isa.Instruction{
		"halt":   {Op: isa.OpHalt},
		"addi":   {Op: isa.OpAddi, Rd: 1, Ra: 2, Imm: -7},
		"store":  {Op: isa.OpSt, Rb: 13, Ra: 14, Imm: 62},
		"branch": {Op: isa.OpBlt, Ra: 3, Rb: 4, Imm: 5},
	} {
		writeSeed(decDir, name, fmt.Sprintf("uint64(%d)", isa.EncodeRaw(ins)))
	}
	writeSeed(decDir, "all_ones", fmt.Sprintf("uint64(%d)", ^uint64(0)))

	// internal/fabric: a valid bitstream, a checksum-corrupted copy, and
	// truncations that stop at each header boundary.
	cfg := []fabric.CellConfig{
		{Truth: 0x0002, UseFF: true, Inputs: [4]fabric.Source{{Kind: fabric.SourceCell, Index: 1}}},
		{Truth: 0x0001, Inputs: [4]fabric.Source{{Kind: fabric.SourceInput, Index: 0}, {Kind: fabric.SourceOne}}},
	}
	bs, err := fabric.MarshalBitstream(2, 1, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fabDir := filepath.Join("internal", "fabric", "testdata", "fuzz", "FuzzBitstreamRoundTrip")
	writeSeed(fabDir, "valid", bytesLit(bs))
	bad := append([]byte(nil), bs...)
	bad[len(bad)-1] ^= 0xFF
	writeSeed(fabDir, "bad_crc", bytesLit(bad))
	writeSeed(fabDir, "magic_only", bytesLit(bs[:4]))
	writeSeed(fabDir, "header_only", bytesLit(bs[:12]))
	writeSeed(fabDir, "empty", bytesLit(nil))

	// internal/machine: encoded programs for the compiled-backend
	// differential fuzzer, seeding the block shapes the fusion rules and
	// terminators special-case.
	encode := func(prog isa.Program) string {
		buf := make([]byte, 0, len(prog)*8)
		for _, ins := range prog {
			var w [8]byte
			binary.LittleEndian.PutUint64(w[:], isa.EncodeRaw(ins))
			buf = append(buf, w[:]...)
		}
		return bytesLit(buf)
	}
	cmpDir := filepath.Join("internal", "machine", "testdata", "fuzz", "FuzzCompile")
	writeSeed(cmpDir, "bench_loop", encode(isa.Program{
		{Op: isa.OpLdi, Rd: 1, Imm: 0},
		{Op: isa.OpLdi, Rd: 2, Imm: 32},
		{Op: isa.OpBeq, Ra: 1, Rb: 2, Imm: 5},
		{Op: isa.OpLd, Rd: 3, Ra: 1, Imm: 0},
		{Op: isa.OpAddi, Rd: 3, Ra: 3, Imm: 1},
		{Op: isa.OpSt, Rb: 3, Ra: 1, Imm: 32},
		{Op: isa.OpAddi, Rd: 1, Ra: 1, Imm: 1},
		{Op: isa.OpJmp, Imm: -6},
		{Op: isa.OpHalt},
	}))
	writeSeed(cmpDir, "fused_triple", encode(isa.Program{
		{Op: isa.OpLd, Rd: 2, Ra: 15, Imm: 3},
		{Op: isa.OpAddi, Rd: 2, Ra: 2, Imm: 5},
		{Op: isa.OpSt, Rb: 2, Ra: 15, Imm: 4},
		{Op: isa.OpHalt},
	}))
	writeSeed(cmpDir, "branch_into_triple", encode(isa.Program{
		{Op: isa.OpBeq, Ra: 0, Rb: 1, Imm: 1},
		{Op: isa.OpLd, Rd: 2, Ra: 15, Imm: 3},
		{Op: isa.OpAddi, Rd: 2, Ra: 2, Imm: 5},
		{Op: isa.OpSt, Rb: 2, Ra: 15, Imm: 4},
		{Op: isa.OpHalt},
	}))
	writeSeed(cmpDir, "self_loop", encode(isa.Program{{Op: isa.OpJmp, Imm: -1}}))
	writeSeed(cmpDir, "induction_loop", encode(isa.Program{
		{Op: isa.OpLdi, Rd: 2, Imm: 10},
		{Op: isa.OpAddi, Rd: 1, Ra: 1, Imm: 1},
		{Op: isa.OpBlt, Ra: 1, Rb: 2, Imm: -2},
		{Op: isa.OpHalt},
	}))
	writeSeed(cmpDir, "div_by_zero", encode(isa.Program{
		{Op: isa.OpLdi, Rd: 1, Imm: 9},
		{Op: isa.OpDiv, Rd: 2, Ra: 1, Rb: 3},
		{Op: isa.OpHalt},
	}))
	writeSeed(cmpDir, "comm_faults", encode(isa.Program{
		{Op: isa.OpLane, Rd: 1},
		{Op: isa.OpRecv, Rd: 2, Ra: 1},
		{Op: isa.OpSync},
		{Op: isa.OpHalt},
	}))
	writeSeed(cmpDir, "alu_pairs", encode(isa.Program{
		{Op: isa.OpLdi, Rd: 1, Imm: 3},
		{Op: isa.OpLdi, Rd: 2, Imm: 5},
		{Op: isa.OpMul, Rd: 1, Ra: 1, Rb: 2},
		{Op: isa.OpAdd, Rd: 2, Ra: 1, Rb: 2},
		{Op: isa.OpMuli, Rd: 3, Ra: 2, Imm: -4},
		{Op: isa.OpAdd, Rd: 3, Ra: 3, Rb: 3},
		{Op: isa.OpAdd, Rd: 4, Ra: 3, Rb: 1},
		{Op: isa.OpAdd, Rd: 4, Ra: 4, Rb: 4},
		{Op: isa.OpSt, Rb: 4, Ra: 0, Imm: 1},
		{Op: isa.OpHalt},
	}))
	writeSeed(cmpDir, "threaded_header", encode(isa.Program{
		{Op: isa.OpLdi, Rd: 6, Imm: 8},
		{Op: isa.OpBeq, Ra: 5, Rb: 6, Imm: 8}, // kl: -> done
		{Op: isa.OpMuli, Rd: 9, Ra: 5, Imm: 3},
		{Op: isa.OpAdd, Rd: 9, Ra: 9, Rb: 5},
		{Op: isa.OpLd, Rd: 10, Ra: 9, Imm: 0},
		{Op: isa.OpMul, Rd: 13, Ra: 10, Rb: 9},
		{Op: isa.OpAdd, Rd: 8, Ra: 8, Rb: 13},
		{Op: isa.OpSt, Rb: 8, Ra: 5, Imm: 40},
		{Op: isa.OpAddi, Rd: 5, Ra: 5, Imm: 1},
		{Op: isa.OpJmp, Imm: -9}, // -> kl
		{Op: isa.OpHalt},
	}))
	writeSeed(cmpDir, "threaded_header_on_itself", encode(isa.Program{
		{Op: isa.OpJmp, Imm: 0},
		{Op: isa.OpBeq, Ra: 0, Rb: 0, Imm: -1},
		{Op: isa.OpHalt},
	}))
	writeSeed(cmpDir, "max_imm", encode(isa.Program{
		{Op: isa.OpLdi, Rd: 1, Imm: math.MaxInt32},
		{Op: isa.OpAddi, Rd: 2, Ra: 1, Imm: math.MinInt32},
		{Op: isa.OpMuli, Rd: 3, Ra: 1, Imm: math.MinInt32},
		{Op: isa.OpHalt},
	}))

	// internal/flexbench: cycle-count vectors over the real kernel × class
	// universe for the scoring-rule fuzzer (two little-endian bytes per
	// universe cell): a varied spread, an all-tied grid where every scored
	// cell is best, sparse coverage, and the empty input.
	fbDir := filepath.Join("internal", "flexbench", "testdata", "fuzz", "FuzzScore")
	uni := flexbench.Universe()
	varied := make([]byte, 2*len(uni))
	tied := make([]byte, 2*len(uni))
	sparse := make([]byte, 2*len(uni))
	for i, c := range uni {
		if !c.Runnable {
			continue
		}
		binary.LittleEndian.PutUint16(varied[2*i:], uint16(i*37+1))
		binary.LittleEndian.PutUint16(tied[2*i:], 4096)
		if i%5 == 0 {
			binary.LittleEndian.PutUint16(sparse[2*i:], uint16(i+1))
		}
	}
	writeSeed(fbDir, "varied", bytesLit(varied))
	writeSeed(fbDir, "all_tied", bytesLit(tied))
	writeSeed(fbDir, "sparse_coverage", bytesLit(sparse))
	writeSeed(fbDir, "empty", bytesLit(nil))

	// internal/progcheck: raw-field programs (FuzzProgcheck's own packing:
	// byte 0 opcode, 1 rd, 2 ra, 3 rb, 4..7 immediate — a full byte per
	// register so invalid encodings are reachable) plus the target shape.
	packCheck := func(prog isa.Program) string {
		buf := make([]byte, 0, len(prog)*8)
		for _, ins := range prog {
			var w [8]byte
			w[0] = uint8(ins.Op)
			w[1], w[2], w[3] = ins.Rd, ins.Ra, ins.Rb
			binary.LittleEndian.PutUint32(w[4:], uint32(ins.Imm))
			buf = append(buf, w[:]...)
		}
		return bytesLit(buf)
	}
	pcDir := filepath.Join("internal", "progcheck", "testdata", "fuzz", "FuzzProgcheck")
	target := func(mem int, procs, flags uint8) []string {
		return []string{fmt.Sprintf("uint16(%d)", mem), fmt.Sprintf("uint8(%d)", procs), fmt.Sprintf("uint8(%d)", flags)}
	}
	seedCheck := func(name string, prog isa.Program, tgt []string) {
		writeSeed(pcDir, name, append([]string{packCheck(prog)}, tgt...)...)
	}
	seedCheck("counted_loop", isa.Program{
		{Op: isa.OpLdi, Rd: 1, Imm: 0},
		{Op: isa.OpLdi, Rd: 2, Imm: 32},
		{Op: isa.OpBeq, Ra: 1, Rb: 2, Imm: 3},
		{Op: isa.OpSt, Rb: 1, Ra: 1, Imm: 0},
		{Op: isa.OpAddi, Rd: 1, Ra: 1, Imm: 1},
		{Op: isa.OpJmp, Imm: -4},
		{Op: isa.OpHalt},
	}, target(64, 1, 0))
	seedCheck("comm_no_network", isa.Program{
		{Op: isa.OpLane, Rd: 1},
		{Op: isa.OpSend, Ra: 1, Rb: 1},
		{Op: isa.OpRecv, Rd: 2, Rb: 1},
		{Op: isa.OpSync},
		{Op: isa.OpHalt},
	}, target(16, 4, 0))
	seedCheck("comm_with_network", isa.Program{
		{Op: isa.OpLane, Rd: 1},
		{Op: isa.OpSend, Ra: 1, Rb: 1},
		{Op: isa.OpRecv, Rd: 2, Rb: 1},
		{Op: isa.OpSync},
		{Op: isa.OpHalt},
	}, target(16, 4, 3))
	seedCheck("oob_store", isa.Program{
		{Op: isa.OpLdi, Rd: 1, Imm: 99},
		{Op: isa.OpSt, Rb: 1, Ra: 1, Imm: 0},
		{Op: isa.OpHalt},
	}, target(8, 1, 0))
	seedCheck("self_loop", isa.Program{{Op: isa.OpJmp, Imm: -1}}, target(8, 1, 0))
	seedCheck("branch_out_of_range", isa.Program{
		{Op: isa.OpBeq, Ra: 0, Rb: 0, Imm: 100},
		{Op: isa.OpHalt},
	}, target(8, 1, 0))
	seedCheck("bad_register", isa.Program{
		{Op: isa.OpAdd, Rd: 200, Ra: 1, Rb: 1},
		{Op: isa.OpHalt},
	}, target(8, 1, 0))
	seedCheck("bad_opcode", isa.Program{
		{Op: isa.Op(0xEE)},
		{Op: isa.OpHalt},
	}, target(8, 1, 0))
	seedCheck("empty", nil, target(0, 0, 0))

	// internal/interconnect: port-count selectors with routes that collide
	// on internal links (same destination, shuffled sources) and loopback.
	omgDir := filepath.Join("internal", "interconnect", "testdata", "fuzz", "FuzzOmegaRouting")
	writeSeed(omgDir, "eight_ports_conflict", "uint8(2)", "uint16(0)", "uint16(7)", "uint16(3)", "uint16(7)")
	writeSeed(omgDir, "two_ports", "uint8(0)", "uint16(0)", "uint16(1)", "uint16(1)", "uint16(0)")
	writeSeed(omgDir, "sixteen_ports", "uint8(3)", "uint16(15)", "uint16(0)", "uint16(8)", "uint16(8)")
	writeSeed(omgDir, "loopback", "uint8(1)", "uint16(2)", "uint16(2)", "uint16(2)", "uint16(2)")
}
