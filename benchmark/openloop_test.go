package main

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestOLScheduleReads(t *testing.T) {
	items := olSchedule(10, 100, 4)
	reads := 0
	for i, it := range items {
		if it.read {
			reads++
			prev := items[i-1]
			if prev.read || prev.idx != it.idx || prev.due != it.due {
				t.Fatalf("read %d does not sit beside its submit: %+v after %+v", i, it, prev)
			}
		}
		if i > 0 && it.due < items[i-1].due {
			t.Fatalf("item %d due before item %d", i, i-1)
		}
	}
	if reads != 2 || items[len(items)-1].due != 90*time.Millisecond {
		t.Fatalf("got %d reads, last due %v; want 2 reads, last due 90ms", reads, items[len(items)-1].due)
	}
}

// TestOpenLoopChargesStall stalls the server on one request and checks
// that every request queued behind it is charged the wait: it is sent
// late, and its latency counts from when it was due, not from when it
// went out. A request sent by an idle worker counts from when it went
// out.
func TestOpenLoopChargesStall(t *testing.T) {
	const (
		n       = 20
		spacing = time.Millisecond
		stall   = 60 * time.Millisecond
		stalled = 2
	)
	items := olSchedule(n, float64(time.Second/spacing), n+1)
	t0 := time.Now()
	clock := func() time.Duration { return time.Since(t0) }
	var sent atomic.Int64
	res := openLoop(items, 1, clock, func(it olItem) error {
		sent.Add(1)
		if it.idx == stalled {
			time.Sleep(stall)
		}
		return nil
	})
	if int(sent.Load()) != n {
		t.Fatalf("sent %d of %d", sent.Load(), n)
	}
	stallEnd := items[stalled].due + stall
	for _, r := range res {
		if r.sent < r.item.due {
			t.Fatalf("item %d sent at %v, before it was due at %v", r.item.idx, r.sent, r.item.due)
		}
		if r.latency() < r.done-r.sent {
			t.Fatalf("item %d: latency %v must cover service %v", r.item.idx, r.latency(), r.done-r.sent)
		}
		if r.item.idx > stalled {
			// The lone worker was busy until the stall ended, so the
			// request went out at least that late and is charged the
			// whole wait.
			if want := stallEnd - r.item.due; r.lag() < want {
				t.Fatalf("item %d lag %v, want at least %v behind the stall", r.item.idx, r.lag(), want)
			}
			if r.start != r.item.due || r.latency() < r.lag() {
				t.Fatalf("item %d: latency %v from %v, want it from the due time %v, covering lag %v",
					r.item.idx, r.latency(), r.start, r.item.due, r.lag())
			}
		} else if r.start != r.sent && r.start != r.item.due {
			t.Fatalf("item %d: latency counts from %v, neither its due time %v nor its send %v", r.item.idx, r.start, r.item.due, r.sent)
		}
	}
	if r := res[stalled]; r.latency() < stall {
		t.Fatalf("stalled request latency %v below the %v stall", r.latency(), stall)
	}
}

// TestOpenLoopWorkersOverlap checks that a stall on one worker does not
// hold back requests another worker can send.
func TestOpenLoopWorkersOverlap(t *testing.T) {
	items := olSchedule(10, 1000, 11)
	t0 := time.Now()
	res := openLoop(items, 2, func() time.Duration { return time.Since(t0) }, func(it olItem) error {
		if it.idx == 0 {
			time.Sleep(100 * time.Millisecond)
		}
		return nil
	})
	if res[1].sent >= res[0].done {
		t.Fatalf("item 1 waited for the stalled item 0 (sent %v, item 0 done %v)", res[1].sent, res[0].done)
	}
}
