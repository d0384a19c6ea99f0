package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// olItem is one request of an open loop: it is due at a fixed offset
// from the loop's start, whatever happened to earlier requests.
type olItem struct {
	due  time.Duration
	read bool
	idx  int // submit index; for a read, the submit it follows
}

// olResult times one item and records how late it was sent. If its
// worker was still busy with an earlier request when the item fell due,
// its latency counts from the due time, so a stall is charged to every
// request it delays. If the worker was idle, the item's latency counts
// from when it went out: a sleeping worker wakes up to a millisecond
// late on a busy virtual machine, and that lateness is the generator's,
// not the system's.
type olResult struct {
	item       olItem
	start      time.Duration
	sent, done time.Duration
	err        error
}

func (r olResult) latency() time.Duration { return r.done - r.start }
func (r olResult) lag() time.Duration     { return r.sent - r.item.due }

// olSchedule lays out n submits at a fixed rate, with a read due
// together with every readEvery-th submit.
func olSchedule(n int, rate float64, readEvery int) []olItem {
	items := make([]olItem, 0, n+n/readEvery)
	for i := 0; i < n; i++ {
		due := time.Duration(float64(i) / rate * float64(time.Second))
		items = append(items, olItem{due: due, idx: i})
		if (i+1)%readEvery == 0 {
			items = append(items, olItem{due: due, read: true, idx: i})
		}
	}
	return items
}

// openLoop sends items in due order from workers goroutines. A worker
// takes the next item, waits until it is due, and sends it; when every
// worker is busy, the next item goes out late and its latency, taken
// from the due time, includes the wait. clock reports the time since
// the loop's start; it returns once every item is done.
func openLoop(items []olItem, workers int, clock func() time.Duration, send func(olItem) error) []olResult {
	res := make([]olResult, len(items))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(items) {
					return
				}
				it := items[i]
				wait := it.due - clock()
				if wait > 0 {
					time.Sleep(wait)
				}
				r := olResult{item: it, start: it.due, sent: clock()}
				if wait > 0 {
					r.start = r.sent
				}
				r.err = send(it)
				r.done = clock()
				res[i] = r
			}
		}()
	}
	wg.Wait()
	return res
}
