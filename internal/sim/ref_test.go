package sim

import "iter"

// pullRef is iter.Pull's contract over a goroutine and two unbuffered
// channels — the transport every recording up to PR 22 crossed, kept as
// the reference the coroutine transport is compared against. The
// sequence runs on its own goroutine, parked on resume whenever the
// caller is not inside next or stop; a panic in it is re-raised on the
// caller, as iter.Pull does.
func pullRef(seq iter.Seq[request]) (next func() (request, bool), stop func()) {
	reqCh := make(chan request)
	resume := make(chan bool) // false: stop
	var panicked any
	done := false
	go func() {
		defer close(reqCh)
		defer func() { panicked = recover() }()
		if <-resume {
			seq(func(r request) bool {
				reqCh <- r
				return <-resume
			})
		}
	}()
	// wake hands the sequence the caller's turn and waits for it back: a
	// request, or the closed channel once the sequence has returned.
	wake := func(goOn bool) (request, bool) {
		if done {
			return request{}, false
		}
		resume <- goOn
		r, ok := <-reqCh
		if !ok {
			done = true
			if panicked != nil {
				panic(panicked)
			}
		}
		return r, ok
	}
	return func() (request, bool) { return wake(true) }, func() { wake(false) }
}

// RunRef is Run over pullRef, for the tests in package sim_test (which
// can import the workloads; this package's own tests cannot).
func RunRef(p *Program, cfg Config) *Result { return run(p, cfg, pullRef) }
