package dep

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"ddprof/internal/loc"
)

// Binary profile format. The text format (Write/Parse) is the paper's
// human-readable output; the binary format is the compact on-disk form for
// toolchains, preserving what the text drops: instance counts, carried and
// reduction flags, and dependence distances. Layout (all integers varint
// unless noted):
//
//	magic "DDP1" (4 bytes)
//	varCount, then per variable: name (len-prefixed string)
//	loopCount, then per loop: begin, end, iterations
//	depCount, then per dependence:
//	    type (1 byte), sink, src, var, sinkThread+1, srcThread+1 (zigzag-free:
//	    threads are small non-negative), count, flags (1 byte:
//	    carried|reversed|reduction), minDist, maxDist
//
// Dependences are written in lessKey order, which makes the encoding
// canonical (two Sets with equal contents encode byte-identically) and lets
// readers merge-join streams without materializing either side, as ddiff
// does (DiffStreams).
//
// BinaryMagic is the four bytes every DDP1 profile starts with; ddiff tells a
// binary profile from a text one by them.
const BinaryMagic = "DDP1"

// Encode writes the set, loop records and variable table in binary form: the
// set's entries in canonical (lessKey) order. The entries stay in their
// slabs; only the permutation of their refs is built.
func Encode(w io.Writer, s *Set, tab *loc.Table, loops []LoopRecord) error {
	e := &encoder{bw: bufio.NewWriter(w)}
	if err := e.header(tab, loops); err != nil {
		return err
	}
	var keys []packedKey
	if s != nil {
		keys = make([]packedKey, s.n)
	}
	for r := range keys {
		keys[r] = packKey(s.at(r).key, r)
	}
	slices.SortFunc(keys, comparePacked)
	if err := e.put(uint64(len(keys))); err != nil {
		return err
	}
	for _, k := range keys {
		en := s.at(k.ref())
		if err := e.record(en.key, en.stats); err != nil {
			return err
		}
	}
	return e.bw.Flush()
}

// packedKey is a Key in three words that compare, as unsigned integers in
// order, the way lessKey orders Keys, with the entry's ref in the low 32 bits
// of the last: a set holds each key once, so the ref never decides. Sorting
// these sorts without reaching into the slabs.
type packedKey struct{ hi, mid, lo uint64 }

func packKey(k Key, ref int) packedKey {
	return packedKey{
		hi:  uint64(k.Sink)<<32 | uint64(k.Src),
		mid: uint64(k.Type)<<32 | uint64(k.Var),
		// Threads are signed: flipping the sign bit orders them unsigned.
		lo: uint64(uint16(k.SinkThread)^0x8000)<<48 | uint64(uint16(k.SrcThread)^0x8000)<<32 | uint64(uint32(ref)),
	}
}

func (k packedKey) ref() int { return int(uint32(k.lo)) }

func comparePacked(a, b packedKey) int {
	if c := cmp.Compare(a.hi, b.hi); c != 0 {
		return c
	}
	if c := cmp.Compare(a.mid, b.mid); c != 0 {
		return c
	}
	return cmp.Compare(a.lo, b.lo)
}

// encoder wraps the shared varint/byte plumbing of the DDP1 writer.
type encoder struct {
	bw  *bufio.Writer
	buf [binary.MaxVarintLen64]byte
}

func (e *encoder) put(v uint64) error {
	n := binary.PutUvarint(e.buf[:], v)
	_, err := e.bw.Write(e.buf[:n])
	return err
}

func (e *encoder) header(tab *loc.Table, loops []LoopRecord) error {
	if _, err := e.bw.WriteString(BinaryMagic); err != nil {
		return err
	}
	// Variable table: IDs are dense, so emit names in ID order.
	nv := tab.NumVars()
	if err := e.put(uint64(nv)); err != nil {
		return err
	}
	for i := 0; i < nv; i++ {
		name := tab.VarName(loc.VarID(i))
		if err := e.put(uint64(len(name))); err != nil {
			return err
		}
		if _, err := e.bw.WriteString(name); err != nil {
			return err
		}
	}
	if err := e.put(uint64(len(loops))); err != nil {
		return err
	}
	for _, l := range loops {
		if err := e.put(uint64(l.Begin)); err != nil {
			return err
		}
		if err := e.put(uint64(l.End)); err != nil {
			return err
		}
		if err := e.put(l.Iterations); err != nil {
			return err
		}
	}
	return nil
}

func (e *encoder) record(k Key, st Stats) error {
	var fl byte
	if st.Carried {
		fl |= 1
	}
	if st.Reversed {
		fl |= 2
	}
	if st.Reduction {
		fl |= 4
	}
	// The record is built whole and written once: two bytes, eight varints.
	var rec [2 + 8*binary.MaxVarintLen64]byte
	b := append(rec[:0], byte(k.Type))
	for _, v := range [...]uint64{
		uint64(k.Sink), uint64(k.Src), uint64(k.Var),
		uint64(k.SinkThread) + 1, uint64(k.SrcThread) + 1,
		st.Count,
	} {
		b = binary.AppendUvarint(b, v)
	}
	b = append(b, fl)
	b = binary.AppendUvarint(b, uint64(st.MinDist))
	b = binary.AppendUvarint(b, uint64(st.MaxDist))
	_, err := e.bw.Write(b)
	return err
}

func lessKey(a, b Key) bool {
	if a.Sink != b.Sink {
		return a.Sink < b.Sink
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	if a.Type != b.Type {
		return a.Type < b.Type
	}
	if a.Var != b.Var {
		return a.Var < b.Var
	}
	if a.SinkThread != b.SinkThread {
		return a.SinkThread < b.SinkThread
	}
	return a.SrcThread < b.SrcThread
}

// Decoder streams dependence records out of a binary profile one at a time.
// The header (variable table, loop records, record count) is consumed by
// NewDecoder; each Next returns one dependence without the profile ever
// being materialized as a map — a million-dependence stored profile costs
// the reader one record of state.
type Decoder struct {
	br    *bufio.Reader
	tab   *loc.Table
	loops []LoopRecord
	n     uint64
	read  uint64
}

// NewDecoder reads the profile header and positions the stream at the first
// dependence record.
func NewDecoder(r io.Reader) (*Decoder, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("dep: reading magic: %w", err)
	}
	if string(magic) != BinaryMagic {
		return nil, fmt.Errorf("dep: bad magic %q", magic)
	}
	get := func() (uint64, error) { return binary.ReadUvarint(br) }

	tab := loc.NewTable()
	nv, err := get()
	if err != nil {
		return nil, err
	}
	if nv > 1<<24 {
		return nil, fmt.Errorf("dep: implausible variable count %d", nv)
	}
	for i := uint64(0); i < nv; i++ {
		ln, err := get()
		if err != nil {
			return nil, err
		}
		if ln > 1<<16 {
			return nil, fmt.Errorf("dep: implausible name length %d", ln)
		}
		name := make([]byte, ln)
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, err
		}
		tab.Var(string(name)) // IDs reassigned densely in the same order
	}

	nl, err := get()
	if err != nil {
		return nil, err
	}
	if nl > 1<<24 {
		return nil, fmt.Errorf("dep: implausible loop count %d", nl)
	}
	loops := make([]LoopRecord, 0, nl)
	for i := uint64(0); i < nl; i++ {
		var l LoopRecord
		v, err := get()
		if err != nil {
			return nil, err
		}
		l.Begin = loc.SourceLoc(v)
		if v, err = get(); err != nil {
			return nil, err
		}
		l.End = loc.SourceLoc(v)
		if l.Iterations, err = get(); err != nil {
			return nil, err
		}
		loops = append(loops, l)
	}

	nd, err := get()
	if err != nil {
		return nil, err
	}
	if nd > 1<<28 {
		return nil, fmt.Errorf("dep: implausible dependence count %d", nd)
	}
	return &Decoder{br: br, tab: tab, loops: loops, n: nd}, nil
}

// Table returns the interned variable table from the profile header.
func (d *Decoder) Table() *loc.Table { return d.tab }

// Loops returns the loop records from the profile header.
func (d *Decoder) Loops() []LoopRecord { return d.loops }

// Len returns the number of dependence records in the profile.
func (d *Decoder) Len() int { return int(d.n) }

// Next returns the next dependence record, or io.EOF after the last one. An
// unexpected end of input mid-record surfaces as io.ErrUnexpectedEOF.
func (d *Decoder) Next() (Key, Stats, error) {
	if d.read >= d.n {
		return Key{}, Stats{}, io.EOF
	}
	d.read++
	tb, err := d.br.ReadByte()
	if err != nil {
		return Key{}, Stats{}, noEOF(err)
	}
	var vals [6]uint64
	for j := range vals {
		if vals[j], err = binary.ReadUvarint(d.br); err != nil {
			return Key{}, Stats{}, noEOF(err)
		}
	}
	fl, err := d.br.ReadByte()
	if err != nil {
		return Key{}, Stats{}, noEOF(err)
	}
	minD, err := binary.ReadUvarint(d.br)
	if err != nil {
		return Key{}, Stats{}, noEOF(err)
	}
	maxD, err := binary.ReadUvarint(d.br)
	if err != nil {
		return Key{}, Stats{}, noEOF(err)
	}
	k := Key{
		Type: Type(tb),
		Sink: loc.SourceLoc(vals[0]), Src: loc.SourceLoc(vals[1]),
		Var:        loc.VarID(vals[2]),
		SinkThread: int16(vals[3] - 1), SrcThread: int16(vals[4] - 1),
	}
	st := Stats{
		Count:     vals[5],
		Carried:   fl&1 != 0,
		Reversed:  fl&2 != 0,
		Reduction: fl&4 != 0,
		MinDist:   uint32(minD),
		MaxDist:   uint32(maxD),
	}
	return k, st, nil
}

// noEOF converts a clean EOF inside a record (the stream promised more
// records than it delivered) into ErrUnexpectedEOF, so only Decoder.Next's
// own end-of-stream sentinel ever reads as io.EOF.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Decode reads a binary profile written by Encode, one record at a time.
func Decode(r io.Reader) (*Set, []LoopRecord, *loc.Table, error) {
	d, err := NewDecoder(r)
	if err != nil {
		return nil, nil, nil, err
	}
	set := NewSet()
	for {
		k, st, err := d.Next()
		if err == io.EOF {
			return set, d.loops, d.tab, nil
		}
		if err != nil {
			return nil, nil, nil, err
		}
		set.Ref(k).fold(&st)
		set.addInstances(st.Count)
	}
}
