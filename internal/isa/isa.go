// Package isa defines the micro-operation model executed by the
// simulated out-of-order core.
//
// The simulator is execution-driven over synthetic instruction streams
// (see internal/workload): each micro-op carries its kind, logical
// registers, and — for loads, stores and branches — the architectural
// information (virtual address, branch target/outcome) that the timing
// model needs. There is no binary encoding; semantics beyond timing are
// out of scope (see DESIGN.md §6).
package isa

import "fmt"

// Kind classifies a micro-op by the functional unit class it needs.
type Kind uint8

// Micro-op kinds. The order is stable and used for indexing port and
// latency tables.
const (
	ALU    Kind = iota // single-cycle integer op
	Mul                // integer multiply
	Div                // integer divide (unpipelined)
	FAdd               // FP add/sub/convert
	FMul               // FP multiply
	FDiv               // FP divide (unpipelined)
	Load               // memory load
	Store              // memory store
	Branch             // conditional or unconditional branch
	Nop                // no-op (consumes a slot, no execution)
	Pause              // x86 PAUSE-style switch hint (Section 6 extension)

	NumKinds // number of kinds; keep last
)

var kindNames = [NumKinds]string{
	"ALU", "MUL", "DIV", "FADD", "FMUL", "FDIV",
	"LOAD", "STORE", "BRANCH", "NOP", "PAUSE",
}

// String returns the conventional mnemonic for the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// IsMem reports whether the kind accesses data memory.
func (k Kind) IsMem() bool { return k == Load || k == Store }

// Reg is a logical (architectural) register number. The synthetic ISA
// has NumRegs general registers; RegNone marks an absent operand.
type Reg int8

// NumRegs is the size of the logical register file.
const NumRegs = 32

// RegNone marks an unused source or destination operand.
const RegNone Reg = -1

// Valid reports whether r is a real register (not RegNone).
func (r Reg) Valid() bool { return r >= 0 && r < NumRegs }

// Uop is one micro-operation of a synthetic program.
//
// Seq is the architectural sequence number within the thread's stream;
// it is the workload generator's replay key: after a pipeline squash
// the front end resumes fetching at the Seq following the last retired
// micro-op.
type Uop struct {
	Seq  uint64 // position in the thread's instruction stream
	PC   uint64 // synthetic program counter (for branch prediction)
	Kind Kind

	Dst  Reg // destination register, RegNone if none
	Src1 Reg // first source, RegNone if none
	Src2 Reg // second source, RegNone if none

	// Memory operands (Kind Load/Store only).
	Addr uint64 // virtual byte address
	Size uint8  // access size in bytes

	// Branch operands (Kind Branch only).
	Taken  bool   // architectural outcome
	Target uint64 // architectural target PC
}

// String renders a compact human-readable form, for logs and tests.
func (u *Uop) String() string {
	switch u.Kind {
	case Load:
		return fmt.Sprintf("#%d %s r%d <- [%#x]", u.Seq, u.Kind, u.Dst, u.Addr)
	case Store:
		return fmt.Sprintf("#%d %s [%#x] <- r%d", u.Seq, u.Kind, u.Addr, u.Src1)
	case Branch:
		dir := "nt"
		if u.Taken {
			dir = "t"
		}
		return fmt.Sprintf("#%d %s pc=%#x %s -> %#x", u.Seq, u.Kind, u.PC, dir, u.Target)
	default:
		return fmt.Sprintf("#%d %s r%d <- r%d, r%d", u.Seq, u.Kind, u.Dst, u.Src1, u.Src2)
	}
}

// Latency is the execution latency table, in cycles, for non-memory
// kinds. Loads and stores derive their latency from the memory
// hierarchy. The values follow the P6-style configuration in DESIGN.md.
var Latency = [NumKinds]int{
	ALU:    1,
	Mul:    4,
	Div:    20,
	FAdd:   3,
	FMul:   5,
	FDiv:   24,
	Load:   0, // determined by cache access
	Store:  1, // address generation; data dispatch happens post-retire
	Branch: 1,
	Nop:    1,
	Pause:  1,
}

// Pipelined reports whether the functional unit for k accepts a new op
// every cycle. Divides are iterative and block their unit.
func Pipelined(k Kind) bool { return k != Div && k != FDiv }

// Port identifies an issue port of the execute cluster.
type Port uint8

// Issue ports, P6-flavoured: two integer ALUs (one shared with
// mul/div), one FP cluster port, one load port, one store port, and
// branches resolve on port 1.
const (
	Port0    Port = iota // ALU, MUL, DIV
	Port1                // ALU, BRANCH
	PortFP               // FADD, FMUL, FDIV
	PortLoad             // LOAD
	PortStu              // STORE (address generation)

	NumPorts
)

// PortMask holds PortsFor as a bitmask over port numbers (bit p set
// iff Port(p) can execute the kind; zero for kinds that occupy no
// port). Iterating its set bits from the LSB visits ports in the same
// order PortsFor lists them — hot paths rely on that to replicate the
// port-claim order of the slice-based API exactly.
var PortMask = func() [NumKinds]uint8 {
	var m [NumKinds]uint8
	for k := Kind(0); k < NumKinds; k++ {
		for _, p := range PortsFor(k) {
			m[k] |= 1 << uint(p)
		}
	}
	return m
}()

// PortsFor returns the set of ports that can execute kind k.
// Nop and Pause occupy no port (they complete at issue).
func PortsFor(k Kind) []Port {
	switch k {
	case ALU:
		return []Port{Port0, Port1}
	case Mul, Div:
		return []Port{Port0}
	case FAdd, FMul, FDiv:
		return []Port{PortFP}
	case Load:
		return []Port{PortLoad}
	case Store:
		return []Port{PortStu}
	case Branch:
		return []Port{Port1}
	default:
		return nil
	}
}
