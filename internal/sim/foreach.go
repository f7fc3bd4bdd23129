package sim

import "sync"

// ForEach calls fn(i) for every i in [0, n) from up to workers (≥ 1)
// goroutines and returns when every call has. It is how independent runs
// — soak cases, probabilistic trials, protocol-search candidates — share
// the machine: each call owns whatever it builds (a World, a System), and
// a caller that stores fn's result at index i gets the same answers in the
// same order whatever workers is.
func ForEach(n, workers int, fn func(i int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
