// Package sweep mirrors the real cell engine's shape: it is the only
// internal package allowed to own goroutines and sync primitives. The goroutine rule's worker-pool
// exemption matches by path suffix, so this fixture pins that a `go`
// statement and a sync import stay clean here while the identical shape
// in proto.SpawnBad is flagged.
package sweep

import "sync"

// Run fans n cells out to n workers and waits for all of them — the
// concurrency pattern the exemption exists for.
func Run(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() { defer wg.Done() }()
	}
	wg.Wait()
}
