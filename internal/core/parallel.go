package core

import (
	"ddprof/internal/event"
)

// Parallel is the profiler of §IV for sequential targets: the main (target)
// thread produces accesses, distributes them into per-worker chunks by
// address, and W workers detect dependences in disjoint address subsets
// using worker-local signatures and dependence maps.
//
// It is the canonical pipeline composition: the shared producer stage
// (address routing, duplicate filter) over chunked transports into engine
// workers, merged by the shared merge stage.
//
// Access must be called from a single goroutine (the target is sequential);
// Flush drains the pipeline, joins the workers and merges their results.
type Parallel struct {
	pl pipeline
	pr producer
}

// newParallel builds the pipeline and starts the workers.
func newParallel(cfg Config) (*Parallel, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	engs, err := makeEngines(&cfg, cfg.Workers)
	if err != nil {
		return nil, err
	}
	p := &Parallel{}
	p.pl.m = cfg.Metrics
	trs := make([]*chunkTransport, cfg.Workers)
	for i := range trs {
		trs[i] = newChunkTransport(cfg.LockBased, cfg.QueueCap)
		p.pl.workers = append(p.pl.workers, &worker{
			id:      i,
			tr:      trs[i],
			eng:     engs[i],
			m:       cfg.Metrics,
			onDelta: cfg.OnEpochDelta,
		})
	}
	p.pl.startAll()
	p.pr.init(trs, &cfg)
	return p, nil
}

// Access implements Profiler: the one-event batch.
func (p *Parallel) Access(a event.Access) { p.pr.putBatch([]event.Access{a}, nil) }

// AccessBatch implements Profiler: the producer routes the caller's buffer in
// place (producer.putBatch). Single-goroutine, like Access.
func (p *Parallel) AccessBatch(accesses []event.Access, ranges []event.Range) {
	p.pr.putBatch(accesses, ranges)
}

// Flush implements Profiler.
func (p *Parallel) Flush() *Result {
	p.pl.beginFlush()
	p.pr.drainFlush()
	p.pl.wg.Wait()
	return p.pl.merge(p.pr.stats, false)
}
