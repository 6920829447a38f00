package tmf

import "sync"

// fanOut runs fn over items concurrently, one goroutine per item. It
// serves the hops to other nodes only — phase one to the child TMPs
// (phase1Children), the outcome's first delivery to them (delivery.send)
// and the safe queue's per-destination retries (FlushSafeQueue) — whose
// calls go through tmpCallResp's traced, blocking round trip. Calls to
// this node's own volumes need no goroutines: callVolumes sends them
// nowait and awaits them in turn. fanOut always waits for every call to
// finish before returning — the commit/abort protocol holds protoMu
// across its steps, and the invariant that no protocol work outlives the
// step that issued it depends on this barrier (End's ENDED delivery is the
// one step that outlives its caller, and it does so as a whole:
// delivery.send runs this barrier behind the reply). The first error
// observed is returned; remaining calls still run to completion (a
// phase-one request that already started must not be abandoned
// half-acknowledged).
func fanOut[T any](items []T, fn func(T) error) error {
	switch len(items) {
	case 0:
		return nil
	case 1:
		return fn(items[0])
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	for _, it := range items {
		wg.Add(1)
		go func(it T) {
			defer wg.Done()
			if err := fn(it); err != nil {
				mu.Lock()
				if first == nil {
					first = err
				}
				mu.Unlock()
			}
		}(it)
	}
	wg.Wait()
	return first
}
