package isa

import (
	"strings"
	"testing"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		ALU:    "ALU",
		Load:   "LOAD",
		Store:  "STORE",
		Branch: "BRANCH",
		Pause:  "PAUSE",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(200).String(); !strings.Contains(got, "200") {
		t.Errorf("unknown kind string = %q", got)
	}
}

func TestIsMem(t *testing.T) {
	for k := Kind(0); k < NumKinds; k++ {
		want := k == Load || k == Store
		if got := k.IsMem(); got != want {
			t.Errorf("%v.IsMem() = %v, want %v", k, got, want)
		}
	}
}

func TestRegValid(t *testing.T) {
	if RegNone.Valid() {
		t.Error("RegNone must not be valid")
	}
	if !Reg(0).Valid() || !Reg(NumRegs-1).Valid() {
		t.Error("in-range registers must be valid")
	}
	if Reg(NumRegs).Valid() {
		t.Error("out-of-range register must not be valid")
	}
}

func TestLatencyTablePositive(t *testing.T) {
	for k := Kind(0); k < NumKinds; k++ {
		if k == Load {
			continue // memory-determined
		}
		if Latency[k] <= 0 {
			t.Errorf("latency for %v must be positive, got %d", k, Latency[k])
		}
	}
}

func TestPortsForCoverAllExecutingKinds(t *testing.T) {
	for k := Kind(0); k < NumKinds; k++ {
		ports := PortsFor(k)
		switch k {
		case Nop, Pause:
			if len(ports) != 0 {
				t.Errorf("%v should use no port", k)
			}
		default:
			if len(ports) == 0 {
				t.Errorf("%v has no issue port", k)
			}
			for _, p := range ports {
				if p >= NumPorts {
					t.Errorf("%v maps to invalid port %d", k, p)
				}
			}
		}
	}
}

func TestPipelined(t *testing.T) {
	if Pipelined(Div) || Pipelined(FDiv) {
		t.Error("divides must be unpipelined")
	}
	if !Pipelined(ALU) || !Pipelined(Load) {
		t.Error("ALU and Load must be pipelined")
	}
}

func TestUopString(t *testing.T) {
	ld := &Uop{Seq: 1, Kind: Load, Dst: 3, Addr: 0x1000}
	if s := ld.String(); !strings.Contains(s, "LOAD") || !strings.Contains(s, "0x1000") {
		t.Errorf("load string = %q", s)
	}
	st := &Uop{Seq: 2, Kind: Store, Src1: 4, Addr: 0x2000}
	if s := st.String(); !strings.Contains(s, "STORE") {
		t.Errorf("store string = %q", s)
	}
	br := &Uop{Seq: 3, Kind: Branch, PC: 0x40, Taken: true, Target: 0x80}
	if s := br.String(); !strings.Contains(s, "BRANCH") || !strings.Contains(s, " t ") {
		t.Errorf("branch string = %q", s)
	}
	alu := &Uop{Seq: 4, Kind: ALU, Dst: 1, Src1: 2, Src2: 3}
	if s := alu.String(); !strings.Contains(s, "ALU") {
		t.Errorf("alu string = %q", s)
	}
}
