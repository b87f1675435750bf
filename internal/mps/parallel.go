package mps

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// chunk is how many consecutive items a worker takes at a time; forEach
// polls for cancellation between chunks.
const chunk = 4

// forEach calls fn(i) for every i in [0, n), in chunks of consecutive
// items taken by up to GOMAXPROCS goroutines, the caller's among them.
// fn(i) may write only state that belongs to item i, which makes the
// outcome independent of the worker count. forEach polls done between
// chunks and reports false if it was closed, in which case some items did
// not run. A panic in fn stops the remaining chunks and is re-raised on
// the caller, as a *workerPanic, once every worker has returned.
func forEach(done <-chan struct{}, n int, fn func(i int)) bool {
	run := func(lo int) {
		for i := lo; i < min(lo+chunk, n); i++ {
			fn(i)
		}
	}
	workers := min(runtime.GOMAXPROCS(0), (n+chunk-1)/chunk)
	if workers <= 1 {
		for lo := 0; lo < n; lo += chunk {
			if closed(done) {
				return false
			}
			run(lo)
		}
		return true
	}
	var (
		next     atomic.Int64
		halt     atomic.Bool // set on the first panic or cancellation
		canceled atomic.Bool
		first    sync.Once
		failure  *workerPanic
		wg       sync.WaitGroup
	)
	work := func() {
		defer wg.Done()
		defer func() {
			if v := recover(); v != nil {
				first.Do(func() { failure = &workerPanic{value: v, stack: debug.Stack()} })
				halt.Store(true)
			}
		}()
		for !halt.Load() {
			lo := int(next.Add(chunk)) - chunk
			if lo >= n {
				return
			}
			if closed(done) {
				canceled.Store(true)
				halt.Store(true)
				return
			}
			run(lo)
		}
	}
	wg.Add(workers)
	for range workers - 1 {
		go work()
	}
	work()
	wg.Wait()
	if failure != nil {
		panic(failure)
	}
	return !canceled.Load()
}

func closed(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// workerPanic is a panic raised by fn inside forEach, carried to the
// goroutine that called forEach, where a caller's recover — such as the
// serving layer's per-op containment — can reach it. stack is the
// panicking goroutine's, which the re-raise would otherwise lose.
type workerPanic struct {
	value any
	stack []byte
}

func (p *workerPanic) Error() string {
	return fmt.Sprintf("%v\n\npanicking goroutine's stack:\n%s", p.value, p.stack)
}

// Unwrap returns the panic value if it is an error, such as a runtime.Error.
func (p *workerPanic) Unwrap() error {
	err, _ := p.value.(error)
	return err
}
