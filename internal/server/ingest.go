package server

// Session ingest: one decode goroutine reads the session's frames through
// trace.FrameReader and batch-decodes them straight out of the bufio window
// into event chunks via trace.Reader.NextBatch; the session goroutine feeds
// each batch to the pipeline's bulk-ingest seam. The bounded chunk ring
// between the two lets decode and profiling overlap while record order is
// preserved end to end, and keeps pipeline backpressure intact: a stalled
// profiler fills the ring, which stalls the decoder, which stops the socket
// reads. Only the decoder ends ingest — at the stream's end, on a record it
// refuses, or on a failed read — so the session never has to stop it: it
// drains the ring until the decoder closes it.

import (
	"bufio"
	"io"

	"ddprof/internal/event"
	"ddprof/internal/trace"
)

// ingestDepth is how many decoded chunks may be in flight between the
// decoder and the session loop.
const ingestDepth = 4

// ingestBatch is one decoded chunk and the decoder's event count for it
// (ranges weighted by element count, collapsed reads by 1+Rep).
type ingestBatch struct {
	c      *event.Chunk
	events uint64
}

// ingest owns a session's decode goroutine and the chunk ring it fills.
type ingest struct {
	out  chan ingestBatch // decoder → session: decoded batches; closed as the decoder exits
	free chan *event.Chunk

	decodeErr error // terminal error, io.EOF for a clean stream; written before out closes
	// The decoder's define-record counts (trace.Reader.SiteDefines), written
	// before out closes.
	defines, redefines uint64
}

// startIngest launches the decoder. br must be positioned just past the
// handshake.
func startIngest(br *bufio.Reader) *ingest {
	ing := &ingest{
		out:  make(chan ingestBatch, ingestDepth),
		free: make(chan *event.Chunk, ingestDepth),
	}
	for i := 0; i < ingestDepth; i++ {
		ing.free <- event.NewChunk()
	}
	go ing.decode(br)
	return ing
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
		c := <-ing.free
		c.Reset()
		base := tr.Count()
		n, err := tr.NextBatch(c)
		if n > 0 {
			ing.out <- ingestBatch{c: c, events: tr.Count() - base}
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
