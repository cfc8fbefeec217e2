// Package prog builds executable programs for the BlackJack simulator: a
// small assembler-style Builder for hand-written kernels, and a deterministic
// synthetic-workload generator whose 16 named profiles stand in for the
// paper's SPEC2000 benchmarks (see DESIGN.md for the substitution argument).
package prog

import (
	"fmt"

	"blackjack/internal/isa"
)

// Builder assembles a program with symbolic labels. Methods record the first
// error and subsequent calls become no-ops, so call sites can chain emissions
// and check the error once at Build.
type Builder struct {
	name     string
	code     []isa.Inst
	labels   map[string]int
	fixups   map[int]string // instruction index -> label its Imm refers to
	dataSize int
	init     []uint64
	err      error
}

// NewBuilder returns a Builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:   name,
		labels: make(map[string]int),
		fixups: make(map[int]string),
	}
}

// failf records the first error.
func (b *Builder) failf(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("prog: %s: %s", b.name, fmt.Sprintf(format, args...))
	}
}

// Len returns the number of instructions emitted so far (the address of the
// next instruction).
func (b *Builder) Len() int { return len(b.code) }

// Label defines name at the current position.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup {
		b.failf("duplicate label %q", name)
		return b
	}
	b.labels[name] = len(b.code)
	return b
}

// Data reserves a data segment of size bytes (rounded up to 8).
func (b *Builder) Data(size int) *Builder {
	if size < 0 {
		b.failf("negative data size %d", size)
		return b
	}
	b.dataSize = (size + 7) &^ 7
	return b
}

// InitWords seeds the start of the data segment with the given 64-bit words.
func (b *Builder) InitWords(words ...uint64) *Builder {
	b.init = append(b.init, words...)
	return b
}

// Emit appends a raw instruction.
func (b *Builder) Emit(in isa.Inst) *Builder {
	b.code = append(b.code, in)
	return b
}

// Op3 emits a three-register instruction.
func (b *Builder) Op3(op isa.Op, rd, rs1, rs2 isa.Reg) *Builder {
	return b.Emit(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// OpImm emits a register-immediate instruction.
func (b *Builder) OpImm(op isa.Op, rd, rs1 isa.Reg, imm int64) *Builder {
	return b.Emit(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Imm: imm})
}

// Addi emits rd = rs1 + imm.
func (b *Builder) Addi(rd, rs1 isa.Reg, imm int64) *Builder {
	return b.OpImm(isa.OpAddi, rd, rs1, imm)
}

// Li loads a 64-bit immediate into rd (addi from the zero register; our Imm
// field is a full int64 so one instruction suffices).
func (b *Builder) Li(rd isa.Reg, v int64) *Builder {
	return b.Addi(rd, isa.ZeroReg, v)
}

// Mv emits rd = rs.
func (b *Builder) Mv(rd, rs isa.Reg) *Builder {
	return b.Op3(isa.OpOr, rd, rs, isa.ZeroReg)
}

// Ld emits rd = mem[rs1+imm].
func (b *Builder) Ld(rd, rs1 isa.Reg, imm int64) *Builder {
	return b.Emit(isa.Inst{Op: isa.OpLd, Rd: rd, Rs1: rs1, Imm: imm})
}

// St emits mem[rs1+imm] = rs2.
func (b *Builder) St(rs1, rs2 isa.Reg, imm int64) *Builder {
	return b.Emit(isa.Inst{Op: isa.OpSt, Rs1: rs1, Rs2: rs2, Imm: imm})
}

// FLd emits fd = mem[rs1+imm].
func (b *Builder) FLd(fd, rs1 isa.Reg, imm int64) *Builder {
	return b.Emit(isa.Inst{Op: isa.OpFLd, Rd: fd, Rs1: rs1, Imm: imm})
}

// FSt emits mem[rs1+imm] = fs2.
func (b *Builder) FSt(rs1, fs2 isa.Reg, imm int64) *Builder {
	return b.Emit(isa.Inst{Op: isa.OpFSt, Rs1: rs1, Rs2: fs2, Imm: imm})
}

// Branch emits a conditional branch to label.
func (b *Builder) Branch(op isa.Op, rs1, rs2 isa.Reg, label string) *Builder {
	b.fixups[len(b.code)] = label
	return b.Emit(isa.Inst{Op: op, Rs1: rs1, Rs2: rs2})
}

// Jmp emits an unconditional jump to label.
func (b *Builder) Jmp(label string) *Builder {
	b.fixups[len(b.code)] = label
	return b.Emit(isa.Inst{Op: isa.OpJmp})
}

// Halt emits a halt.
func (b *Builder) Halt() *Builder { return b.Emit(isa.Inst{Op: isa.OpHalt}) }

// Build resolves labels and validates the program.
func (b *Builder) Build() (*isa.Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	for idx, label := range b.fixups {
		target, ok := b.labels[label]
		if !ok {
			return nil, fmt.Errorf("prog: %s: undefined label %q", b.name, label)
		}
		b.code[idx].Imm = int64(target)
	}
	p := &isa.Program{Name: b.name, Code: b.code, DataSize: b.dataSize, Init: b.init}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
