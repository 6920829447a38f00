package pair

import "sync/atomic"

// maxIdleWorkers bounds the workers one application keeps parked between
// jobs; a worker that finishes a job while that many are idle exits, and
// a job that finds none idle starts a new one. One covers the steady
// state: a requester's next job cannot come before the answer to its
// last, so the worker that answered is parked in time for it. Eight saved
// 0.2 of tp1_terminal's 31 allocations per op but raised batch_backout's
// inquiry p50 by 16-26 %, measured and not explained; CHANGES.md has the
// runs.
const maxIdleWorkers = 1

// Workers answers an application's slow requests — a DISCPROCESS flush,
// an AUDITPROCESS force — off the member goroutine, which must keep
// serving while they block. A job goes to an idle parked worker when
// there is one, and to a new worker only when none is idle, so every job
// runs at once, as it would on a goroutine of its own, without paying a
// goroutine start and a heap copy of its context per request.
//
// A worker counts itself idle before it answers, so the requester's next
// job, which cannot come before the answer, finds it. It parks on its
// last job's process and exits once that process's CPU fails, so workers
// end with their pair member or System.Stop.
type Workers[T any] struct {
	run func(Ctx, T) error
	// idle counts parked workers that no job has claimed. Go claims one
	// by decrementing it and then sends, so a send never waits: the
	// buffer holds at most maxIdleWorkers claimed jobs.
	idle atomic.Int32
	jobs chan workerJob[T]
}

type workerJob[T any] struct {
	ctx Ctx
	arg T
}

// NewWorkers returns a pool that serves each job with run and answers the
// job's request with what run returns: nil, or an error.
func NewWorkers[T any](run func(Ctx, T) error) *Workers[T] {
	return &Workers[T]{run: run, jobs: make(chan workerJob[T], maxIdleWorkers)}
}

// Go runs the job on a parked worker, or on a new one when none is idle.
// The job, ctx included, is copied by value.
func (w *Workers[T]) Go(ctx Ctx, arg T) {
	for {
		n := w.idle.Load()
		if n == 0 {
			go w.work(workerJob[T]{ctx, arg})
			return
		}
		if w.idle.CompareAndSwap(n, n-1) {
			w.jobs <- workerJob[T]{ctx, arg}
			return
		}
	}
}

func (w *Workers[T]) work(j workerJob[T]) {
	for {
		err := w.run(j.ctx, j.arg)
		parks := w.add(1, maxIdleWorkers)
		if err != nil {
			j.ctx.ReplyErr(err)
		} else {
			j.ctx.Reply(nil)
		}
		if !parks {
			return
		}
		select {
		case j = <-w.jobs:
		case <-j.ctx.proc.Context().Done():
			if w.add(-1, 0) {
				return
			}
			// A job claimed this worker; serve it before leaving.
			j = <-w.jobs
		}
	}
}

// add moves idle by d unless that would cross limit, and reports whether
// it moved.
func (w *Workers[T]) add(d, limit int32) bool {
	for {
		n := w.idle.Load()
		if n == limit {
			return false
		}
		if w.idle.CompareAndSwap(n, n+d) {
			return true
		}
	}
}
