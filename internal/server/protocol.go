// Package server implements ddprofd, the concurrent data-dependence
// profiling service: a long-lived daemon that accepts recorded DDT2 trace
// streams over TCP or Unix sockets, runs one profiling pipeline
// (internal/core) per client session, and returns the merged dependence set
// in the compact DDP1 binary profile codec (internal/dep).
//
// # Wire protocol
//
// All integers are unsigned varints unless noted. A session is one
// connection:
//
//	client → server:
//	  magic   "DDRP" (4 bytes), version (1 byte, currently 1)
//	  flags   (1 byte): bit 0 race-check, bit 2 backend spec follows; bit 3,
//	          the retired watch flag, is refused by name, and any other bit —
//	          bit 1, the retired exact-store flag, included: send the spec
//	          "perfect" — as unknown
//	  backend (only when flags bit 2 is set: a length-prefixed store spec
//	          string, "signature", "signature:slots=N" or "perfect":
//	          sig.OpenStore's three forms)
//	  workers (uvarint): per-session pipeline worker hint, 0 = server default
//	  vars    (uvarint n, then n × length-prefixed names, in VarID order)
//	  meta    (1 byte present flag; when 1, the loop table and loop-context
//	          registry of the target — see writeMeta)
//	  frames  (uvarint length + payload, repeated; zero length terminates)
//	          — the concatenated payloads form one DDT2 trace stream:
//	          accesses only (data, define, stamp and range records); the
//	          retired control record, like a DDT1 stream, is refused by name
//
//	server → client:
//	  status  (1 byte): 0 ok, 1 error
//	  payload (uvarint length + bytes): a DDP1 binary profile on success,
//	          a UTF-8 error message on failure
//
// Shipping the variable table and loop metadata in the handshake lets the
// server run full loop-carried classification and name-preserving encoding,
// so a remote profile is byte-identical to the profile an in-process run of
// the same target produces. The response is the session's only answer: the
// daemon keeps nothing of a session once it has replied.
package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"ddprof/internal/loc"
	"ddprof/internal/prog"
)

const (
	protoMagic   = "DDRP"
	protoVersion = 1

	// Handshake flag bits.
	flagRaceCheck   = 1 << 0
	flagBackendSpec = 1 << 2 // a length-prefixed store spec string follows
	flagsKnown      = flagRaceCheck | flagBackendSpec
	// flagRetiredWatch was the live-observatory watch subscription; the
	// daemon serves none, and refuses the bit by name.
	flagRetiredWatch = 1 << 3

	statusOK  = 0
	statusErr = 1

	// Hard decode limits; a peer exceeding one is corrupt or hostile.
	maxVars        = 1 << 20
	maxNameLen     = 1 << 12
	maxBackendSpec = 256
	maxLoops       = 1 << 16
	maxCtxs        = 1 << 16
	maxCtxDepth    = 64
	maxRespPayload = 1 << 28
)

// handshake is the decoded session preamble.
type handshake struct {
	Flags    byte
	Backend  string // store spec; "" = none requested
	Workers  int
	VarNames []string
	Meta     *prog.Meta // nil when the client sent no loop metadata
}

func putUvarint(w io.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}

func putString(w io.Writer, s string) error {
	if err := putUvarint(w, uint64(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func getUvarint(br *bufio.Reader) (uint64, error) {
	v, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, noEOF(err)
	}
	return v, nil
}

func getString(br *bufio.Reader, max int) (string, error) {
	n, err := getUvarint(br)
	if err != nil {
		return "", err
	}
	if n > uint64(max) {
		return "", fmt.Errorf("server: implausible string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", noEOF(err)
	}
	return string(buf), nil
}

// noEOF converts a bare io.EOF into io.ErrUnexpectedEOF: inside a protocol
// element a clean transport EOF is always a truncation.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// writeHandshake emits the session preamble (everything before the frames).
func writeHandshake(w io.Writer, h *handshake) error {
	if _, err := io.WriteString(w, protoMagic); err != nil {
		return err
	}
	flags := h.Flags
	if h.Backend != "" {
		flags |= flagBackendSpec
	}
	if _, err := w.Write([]byte{protoVersion, flags}); err != nil {
		return err
	}
	if h.Backend != "" {
		if err := putString(w, h.Backend); err != nil {
			return err
		}
	}
	if err := putUvarint(w, uint64(h.Workers)); err != nil {
		return err
	}
	if err := putUvarint(w, uint64(len(h.VarNames))); err != nil {
		return err
	}
	for _, n := range h.VarNames {
		if err := putString(w, n); err != nil {
			return err
		}
	}
	if h.Meta == nil {
		_, err := w.Write([]byte{0})
		return err
	}
	if _, err := w.Write([]byte{1}); err != nil {
		return err
	}
	return writeMeta(w, h.Meta)
}

// readHandshake decodes and validates the session preamble.
func readHandshake(br *bufio.Reader) (*handshake, error) {
	m := make([]byte, 5)
	if _, err := io.ReadFull(br, m); err != nil {
		return nil, fmt.Errorf("server: reading magic: %w", noEOF(err))
	}
	if string(m[:4]) != protoMagic {
		return nil, fmt.Errorf("server: bad magic %q", m[:4])
	}
	if m[4] != protoVersion {
		return nil, fmt.Errorf("server: unsupported protocol version %d", m[4])
	}
	fl, err := br.ReadByte()
	if err != nil {
		return nil, noEOF(err)
	}
	if fl&^byte(flagsKnown|flagRetiredWatch) != 0 {
		return nil, fmt.Errorf("server: unknown handshake flags %#x", fl)
	}
	if fl&flagRetiredWatch != 0 {
		return nil, errors.New("server: handshake flag bit 3 (watch) is retired: a session returns its profile at the end and nothing streams")
	}
	h := &handshake{Flags: fl}
	if fl&flagBackendSpec != 0 {
		if h.Backend, err = getString(br, maxBackendSpec); err != nil {
			return nil, fmt.Errorf("server: reading backend spec: %w", err)
		}
		if h.Backend == "" {
			return nil, fmt.Errorf("server: empty backend spec")
		}
	}
	wk, err := getUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("server: reading worker hint: %w", err)
	}
	if wk > 1024 {
		return nil, fmt.Errorf("server: implausible worker hint %d", wk)
	}
	h.Workers = int(wk)
	nv, err := getUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("server: reading variable count: %w", err)
	}
	if nv > maxVars {
		return nil, fmt.Errorf("server: implausible variable count %d", nv)
	}
	h.VarNames = make([]string, 0, nv)
	for i := uint64(0); i < nv; i++ {
		name, err := getString(br, maxNameLen)
		if err != nil {
			return nil, fmt.Errorf("server: reading variable name %d: %w", i, err)
		}
		h.VarNames = append(h.VarNames, name)
	}
	present, err := br.ReadByte()
	if err != nil {
		return nil, noEOF(err)
	}
	switch present {
	case 0:
	case 1:
		if h.Meta, err = readMeta(br); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("server: bad meta presence byte %d", present)
	}
	return h, nil
}

// writeMeta serializes the target's static loop metadata: the loop table
// (name, begin, end, OMP annotation) and the interned loop-context registry
// (each context's loop stack, outermost first), in context-ID order.
func writeMeta(w io.Writer, m *prog.Meta) error {
	loops := m.Loops()
	if err := putUvarint(w, uint64(len(loops))); err != nil {
		return err
	}
	for _, l := range loops {
		if err := putString(w, l.Name); err != nil {
			return err
		}
		if err := putUvarint(w, uint64(l.Begin)); err != nil {
			return err
		}
		if err := putUvarint(w, uint64(l.End)); err != nil {
			return err
		}
		omp := byte(0)
		if l.OMP {
			omp = 1
		}
		if _, err := w.Write([]byte{omp}); err != nil {
			return err
		}
	}
	n := m.NumCtxs()
	if err := putUvarint(w, uint64(n)); err != nil {
		return err
	}
	for id := 1; id < n; id++ { // context 0 is always the empty stack
		stack := m.Stack(uint32(id))
		if err := putUvarint(w, uint64(len(stack))); err != nil {
			return err
		}
		for _, l := range stack {
			if err := putUvarint(w, uint64(l)); err != nil {
				return err
			}
		}
	}
	return nil
}

// readMeta rebuilds a prog.Meta from the wire form. Context IDs are
// reproduced exactly by re-interning the stacks in transmission order; any
// stack whose parent prefix was never seen, or that interns to an unexpected
// ID, marks the stream corrupt.
func readMeta(br *bufio.Reader) (*prog.Meta, error) {
	nl, err := getUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("server: reading loop count: %w", err)
	}
	if nl > maxLoops {
		return nil, fmt.Errorf("server: implausible loop count %d", nl)
	}
	m := prog.NewMeta()
	for i := uint64(0); i < nl; i++ {
		var l prog.Loop
		if l.Name, err = getString(br, maxNameLen); err != nil {
			return nil, fmt.Errorf("server: reading loop %d name: %w", i, err)
		}
		b, err := getUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("server: reading loop %d: %w", i, err)
		}
		l.Begin = loc.SourceLoc(b)
		e, err := getUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("server: reading loop %d: %w", i, err)
		}
		l.End = loc.SourceLoc(e)
		omp, err := br.ReadByte()
		if err != nil {
			return nil, noEOF(err)
		}
		l.OMP = omp != 0
		m.AddLoop(l)
	}
	nc, err := getUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("server: reading context count: %w", err)
	}
	if nc == 0 || nc > maxCtxs {
		return nil, fmt.Errorf("server: implausible context count %d", nc)
	}
	// parents maps a stack (as a comparable key) to its context ID.
	parents := map[string]uint32{"": 0}
	key := make([]byte, 0, 2*maxCtxDepth)
	for id := uint64(1); id < nc; id++ {
		depth, err := getUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("server: reading context %d: %w", id, err)
		}
		if depth == 0 || depth > maxCtxDepth {
			return nil, fmt.Errorf("server: implausible context depth %d", depth)
		}
		stack := make([]prog.LoopID, depth)
		key = key[:0]
		for j := range stack {
			v, err := getUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("server: reading context %d: %w", id, err)
			}
			if v >= nl {
				return nil, fmt.Errorf("server: context %d references loop %d of %d", id, v, nl)
			}
			stack[j] = prog.LoopID(v)
			key = append(key, byte(v), byte(v>>8))
		}
		parent, ok := parents[string(key[:2*(depth-1)])]
		if !ok {
			return nil, fmt.Errorf("server: context %d has no parent context", id)
		}
		got := m.PushCtx(parent, stack[depth-1])
		if got != uint32(id) {
			return nil, fmt.Errorf("server: context table corrupt: %d interned as %d", id, got)
		}
		parents[string(key)] = got
	}
	return m, nil
}

// writeResponse emits the server's reply.
func writeResponse(w io.Writer, status byte, payload []byte) error {
	if _, err := w.Write([]byte{status}); err != nil {
		return err
	}
	if err := putUvarint(w, uint64(len(payload))); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readResponse reads the server's reply.
func readResponse(br *bufio.Reader) (status byte, payload []byte, err error) {
	st, err := br.ReadByte()
	if err != nil {
		return 0, nil, fmt.Errorf("server: reading response status: %w", noEOF(err))
	}
	n, err := getUvarint(br)
	if err != nil {
		return 0, nil, fmt.Errorf("server: reading response length: %w", err)
	}
	if n > maxRespPayload {
		return 0, nil, fmt.Errorf("server: implausible response payload %d", n)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(br, payload); err != nil {
		return 0, nil, fmt.Errorf("server: reading response payload: %w", noEOF(err))
	}
	return st, payload, nil
}
