// Package trace implements a LIT-like container for simulator
// workloads.
//
// The paper's methodology uses LITs (Long Instruction Traces): not
// actual instruction traces but an architectural checkpoint (state
// snapshot) plus injectable external events (interrupts, IO, DMA),
// from which the simulator re-executes the program. This package
// mirrors that structure for synthetic workloads: a Trace carries the
// workload profile (the "memory image" equivalent — everything needed
// to regenerate the instruction stream), a checkpoint of the
// architectural position, and a list of injectable external events
// that perturb timing during simulation.
//
// The binary format is versioned and self-describing; see Encode.
package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"soemt/internal/workload"
)

// Magic identifies trace files ("SOELIT~1").
const Magic = "SOELIT~1"

// Version is the current format version. Version 3 added FracPause to
// the profile block.
const Version uint32 = 3

// EventKind classifies injectable external events.
type EventKind uint8

// Injectable event kinds, mirroring the LIT methodology.
const (
	EventInterrupt EventKind = iota // asynchronous interrupt
	EventIO                         // programmed IO stall
	EventDMA                        // DMA-induced bus activity
)

var eventKindNames = [...]string{"interrupt", "io", "dma"}

// String returns the event kind name.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Valid reports whether k is a defined kind.
func (k EventKind) Valid() bool { return int(k) < len(eventKindNames) }

// Event is one injectable external event: when the thread's
// architectural instruction counter reaches AtInstr, the front end
// stalls for StallCycles (interrupt/IO handling time that is not the
// program's own work).
type Event struct {
	AtInstr     uint64
	Kind        EventKind
	StallCycles uint32
}

// Checkpoint is the architectural state snapshot: where in the
// instruction stream execution resumes, and which address-space slot
// the thread occupies.
type Checkpoint struct {
	StartSeq uint64 // first instruction to execute
	Slot     uint32 // address-space slot (see workload.NewOffset)
}

// Trace is a complete LIT-like workload container.
type Trace struct {
	Profile    workload.Profile
	Checkpoint Checkpoint
	Events     []Event
}

// Validate checks internal consistency.
func (t *Trace) Validate() error {
	if err := t.Profile.Validate(); err != nil {
		return err
	}
	var prev uint64
	for i, e := range t.Events {
		if !e.Kind.Valid() {
			return fmt.Errorf("trace: event %d has invalid kind %d", i, e.Kind)
		}
		if i > 0 && e.AtInstr < prev {
			return fmt.Errorf("trace: events not sorted at index %d", i)
		}
		prev = e.AtInstr
	}
	return nil
}

// --- binary format -------------------------------------------------------

// The format is little-endian:
//
//	magic[8] version:u32
//	profile block (fixed scalars, then phases)
//	checkpoint block
//	eventCount:u32 events...
//
// Strings are u16 length-prefixed.

type writer struct {
	w   io.Writer
	err error
}

func (e *writer) u8(v uint8)   { e.bin(v) }
func (e *writer) u16(v uint16) { e.bin(v) }
func (e *writer) u32(v uint32) { e.bin(v) }
func (e *writer) u64(v uint64) { e.bin(v) }
func (e *writer) f64(v float64) {
	e.bin(math.Float64bits(v))
}
func (e *writer) bin(v interface{}) {
	if e.err == nil {
		e.err = binary.Write(e.w, binary.LittleEndian, v)
	}
}
func (e *writer) str(s string) {
	if len(s) > math.MaxUint16 {
		if e.err == nil {
			e.err = errors.New("trace: string too long")
		}
		return
	}
	e.u16(uint16(len(s)))
	if e.err == nil {
		_, e.err = io.WriteString(e.w, s)
	}
}

type reader struct {
	r   io.Reader
	err error
}

func (d *reader) u8() (v uint8)   { d.bin(&v); return }
func (d *reader) u16() (v uint16) { d.bin(&v); return }
func (d *reader) u32() (v uint32) { d.bin(&v); return }
func (d *reader) u64() (v uint64) { d.bin(&v); return }
func (d *reader) f64() float64    { return math.Float64frombits(d.u64()) }
func (d *reader) bin(v interface{}) {
	if d.err == nil {
		d.err = binary.Read(d.r, binary.LittleEndian, v)
	}
}
func (d *reader) str() string {
	n := d.u16()
	if d.err != nil {
		return ""
	}
	buf := make([]byte, n)
	_, err := io.ReadFull(d.r, buf)
	if err != nil {
		d.err = err
		return ""
	}
	return string(buf)
}

// Encode writes the trace to w in the binary format.
func (t *Trace) Encode(w io.Writer) error {
	if err := t.Validate(); err != nil {
		return err
	}
	e := &writer{w: w}
	if _, err := io.WriteString(w, Magic); err != nil {
		return err
	}
	e.u32(Version)

	p := &t.Profile
	e.str(p.Name)
	e.u64(p.Seed)
	for _, f := range []float64{
		p.FracLoad, p.FracStore, p.FracBranch, p.FracMul, p.FracDiv,
		p.FracFAdd, p.FracFMul, p.FracFDiv, p.FracPause,
		p.ChainFrac, p.PWarm, p.PCold, p.StrideFrac, p.TakenBias, p.NoiseFrac,
	} {
		e.f64(f)
	}
	e.u32(uint32(p.DepWindow))
	e.u64(p.HotBytes)
	e.u64(p.WarmBytes)
	e.u64(p.ColdBytes)
	e.u64(p.LoopLen)
	e.u32(uint32(len(p.Phases)))
	for _, ph := range p.Phases {
		e.u64(ph.Len)
		e.f64(ph.ColdScale)
		e.f64(ph.IlpScale)
	}

	e.u64(t.Checkpoint.StartSeq)
	e.u32(t.Checkpoint.Slot)

	e.u32(uint32(len(t.Events)))
	for _, ev := range t.Events {
		e.u64(ev.AtInstr)
		e.u8(uint8(ev.Kind))
		e.u32(ev.StallCycles)
	}
	return e.err
}

// Decode reads a trace from r.
func Decode(r io.Reader) (*Trace, error) {
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != Magic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	d := &reader{r: r}
	if v := d.u32(); d.err == nil && v != Version {
		return nil, fmt.Errorf("trace: unsupported version %d (want %d)", v, Version)
	}

	var t Trace
	p := &t.Profile
	p.Name = d.str()
	p.Seed = d.u64()
	for _, dst := range []*float64{
		&p.FracLoad, &p.FracStore, &p.FracBranch, &p.FracMul, &p.FracDiv,
		&p.FracFAdd, &p.FracFMul, &p.FracFDiv, &p.FracPause,
		&p.ChainFrac, &p.PWarm, &p.PCold, &p.StrideFrac, &p.TakenBias, &p.NoiseFrac,
	} {
		*dst = d.f64()
	}
	p.DepWindow = int(d.u32())
	p.HotBytes = d.u64()
	p.WarmBytes = d.u64()
	p.ColdBytes = d.u64()
	p.LoopLen = d.u64()
	nPhases := d.u32()
	if d.err != nil {
		return nil, fmt.Errorf("trace: decoding profile: %w", d.err)
	}
	if nPhases > 1<<16 {
		return nil, fmt.Errorf("trace: implausible phase count %d", nPhases)
	}
	for i := uint32(0); i < nPhases; i++ {
		t.Profile.Phases = append(t.Profile.Phases, workload.Phase{
			Len:       d.u64(),
			ColdScale: d.f64(),
			IlpScale:  d.f64(),
		})
	}

	t.Checkpoint.StartSeq = d.u64()
	t.Checkpoint.Slot = d.u32()

	nEvents := d.u32()
	if d.err != nil {
		return nil, fmt.Errorf("trace: decoding checkpoint: %w", d.err)
	}
	if nEvents > 1<<24 {
		return nil, fmt.Errorf("trace: implausible event count %d", nEvents)
	}
	for i := uint32(0); i < nEvents; i++ {
		t.Events = append(t.Events, Event{
			AtInstr:     d.u64(),
			Kind:        EventKind(d.u8()),
			StallCycles: d.u32(),
		})
	}
	if d.err != nil {
		return nil, fmt.Errorf("trace: decoding events: %w", d.err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}
