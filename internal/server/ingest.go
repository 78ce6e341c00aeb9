package server

// Session ingest: one decode goroutine reads the session's frames through
// trace.FrameReader and batch-decodes them straight out of the bufio window
// into event chunks via trace.Reader.NextBatch; the session goroutine
// validates each batch and feeds it to the pipeline's bulk-ingest seam. The
// bounded chunk ring between the two lets decode and profiling overlap while
// record order — and therefore epoch-mark placement — is preserved end to
// end, and keeps pipeline backpressure intact: a stalled profiler fills the
// ring, which stalls the decoder, which stops the socket reads.

import (
	"bufio"
	"io"

	"ddprof/internal/event"
	"ddprof/internal/trace"
)

// ingestDepth is how many decoded chunks may be in flight between the
// decoder and the session loop.
const ingestDepth = 4

// ingestBatch is one decoded chunk plus the stream event index of its first
// record (ranges weighted by element count), which keeps error reporting
// identical to the record-at-a-time path. events is the decoder's event count
// for the batch, and ctl whether it holds any control record: a pure data
// batch (the common case) skips per-record inspection in feedBatch.
type ingestBatch struct {
	c      *event.Chunk
	base   uint64
	events uint64
	ctl    bool
}

// ingest owns a session's decode goroutine and the chunk ring it fills.
type ingest struct {
	out  chan ingestBatch // decoder → session: decoded batches
	free chan *event.Chunk
	done chan struct{}
	tc   *timedConn

	decodeErr error // terminal error, io.EOF for a clean stream; written before out closes
	// The decoder's define-record counts (trace.Reader.SiteDefines), written
	// before out closes.
	defines, redefines uint64
}

// startIngest launches the decoder. br must be positioned just past the
// handshake.
func startIngest(tc *timedConn, br *bufio.Reader) *ingest {
	ing := &ingest{
		out:  make(chan ingestBatch, ingestDepth),
		free: make(chan *event.Chunk, ingestDepth),
		done: make(chan struct{}),
		tc:   tc,
	}
	for i := 0; i < ingestDepth; i++ {
		ing.free <- event.NewChunk()
	}
	go ing.decode(br)
	return ing
}

// stop tears the decoder down from the session goroutine: wake it if it is
// blocked on the ring, kick a blocked socket read off its wait, and join (the
// decoder closes out as it exits). On a cleanly terminated stream the decoder
// has already exited and this is just the join.
func (ing *ingest) stop() {
	close(ing.done)
	ing.tc.stop()
	for range ing.out {
	}
}

// decode turns frames into batched chunks. A batch covers about one frame
// (NextBatch yields once nothing further of the frame is buffered), so
// decoding overlaps the profiling ahead of it.
func (ing *ingest) decode(br *bufio.Reader) {
	defer close(ing.out)
	tr, err := trace.NewReader(trace.NewFrameReader(br, 0))
	if err != nil {
		ing.decodeErr = err
		return
	}
	for {
		var c *event.Chunk
		select {
		case c = <-ing.free:
		case <-ing.done:
			return
		}
		c.Reset()
		base := tr.Count()
		n, err := tr.NextBatch(c)
		if n > 0 {
			ib := ingestBatch{c: c, base: base, events: tr.Count() - base, ctl: tr.BatchControl()}
			select {
			case ing.out <- ib:
			case <-ing.done:
				return
			}
		} else {
			// The free ring has capacity for every chunk, so this never
			// blocks.
			ing.free <- c
		}
		if err != nil {
			ing.decodeErr = err
			ing.defines, ing.redefines = tr.SiteDefines()
			return
		}
	}
}

// err returns the decoder's terminal error, valid once out is closed. A
// clean terminator yields nil.
func (ing *ingest) err() error {
	if ing.decodeErr == io.EOF {
		return nil
	}
	return ing.decodeErr
}
