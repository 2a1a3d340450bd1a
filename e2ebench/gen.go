package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// shot is one arrival of the open loop as the generator saw it.
type shot struct {
	due     time.Time // when the arrival was scheduled
	sent    time.Time // when the generator handed it to a connection
	done    time.Time // when its response was read
	ok      bool      // answered as expected (not shed, not failed)
	dropped bool      // never sent: the backlog was already full
}

// latencyMS is the time from due to response; a shed, failed or dropped
// request counts as missing every latency limit.
func (s shot) latencyMS() float64 {
	if !s.ok || s.dropped {
		return inf
	}
	return float64(s.done.Sub(s.due)) / 1e6
}

func (s shot) lateMS() float64 { return float64(s.sent.Sub(s.due)) / 1e6 }

// poissonDues returns the offsets of n arrivals of a Poisson process at
// rate qps.
func poissonDues(rng *rand.Rand, qps float64, n int) []time.Duration {
	dues := make([]time.Duration, n)
	t := 0.0
	for i := range dues {
		t += rng.ExpFloat64() / qps
		dues[i] = time.Duration(t * float64(time.Second))
	}
	return dues
}

// openLoop sends arrival i at start+dues[i] (dues ascending) over conns
// connection workers, however the target is keeping up. Every wakeup
// dispatches every arrival already due, because a sleep overshoots by
// about a millisecond; the overshoot is recorded per arrival as its
// lateness, and latency is timed from the due time, so a stall in the
// generator or the target is charged to every request it delayed.
// Arrivals that find maxBacklog requests already waiting or in flight
// are dropped and count as misses, which bounds the drain after a rung
// above capacity. send reports whether the answer was the expected one.
func openLoop(dues []time.Duration, conns, maxBacklog int, send func(i int) bool) []shot {
	shots := make([]shot, len(dues))
	// Sized to the number of sends, so the generator never blocks on it.
	queue := make(chan int, len(dues))
	var backlog atomic.Int64
	var wg sync.WaitGroup
	wg.Add(conns)
	for w := 0; w < conns; w++ {
		go func() {
			defer wg.Done()
			for i := range queue {
				ok := send(i)
				shots[i].done, shots[i].ok = time.Now(), ok
				backlog.Add(-1)
			}
		}()
	}
	start := time.Now()
	for i := 0; i < len(dues); {
		now := time.Now()
		if wait := dues[i] - now.Sub(start); wait > 0 {
			time.Sleep(wait)
			continue
		}
		for ; i < len(dues) && start.Add(dues[i]).Compare(now) <= 0; i++ {
			shots[i].due, shots[i].sent = start.Add(dues[i]), now
			if backlog.Load() >= int64(maxBacklog) {
				shots[i].dropped = true
				continue
			}
			backlog.Add(1)
			queue <- i
		}
	}
	close(queue)
	wg.Wait()
	return shots
}
