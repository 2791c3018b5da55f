package sweep

import (
	"runtime"
	"sync"

	"routeless/internal/node"
)

// Pool is the sweep engine's one scheduler: long-lived workers, each
// owning a reusable Context, executing jobs in the order they are
// submitted. Run submits a sweep's cells to one; a run server
// (cmd/simserve) keeps one open and submits runs as they arrive, so the
// worker-private pooling discipline — and the sharedcap ownership rule
// that comes with it — holds the same way for both.
//
// Determinism note: the pool schedules, it never simulates. A job owns
// its run from build to finish on one worker goroutine, so which worker
// executes it (and in what order jobs drain) can change timing but
// never bytes.
type Pool struct {
	jobs chan func(*Context)
	wg   sync.WaitGroup
}

// NewPool starts a pool of the given size; workers <= 0 sizes it from
// GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{jobs: make(chan func(*Context))}
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go func(w int) {
			defer p.wg.Done()
			ctx := &Context{worker: w, rt: node.NewRuntime()}
			for job := range p.jobs {
				job(ctx)
			}
		}(w)
	}
	return p
}

// Submit hands a job to the next free worker, blocking while all are
// busy. The job must thread ctx.Runtime() into node.Config (via
// scenario.BuildOptions) and nowhere else, and must not retain the
// Context past its return.
func (p *Pool) Submit(job func(*Context)) { p.jobs <- job }

// Close stops accepting jobs and waits for in-flight ones to finish.
func (p *Pool) Close() {
	close(p.jobs)
	p.wg.Wait()
}
