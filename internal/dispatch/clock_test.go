package dispatch

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// fakeClock is the chaos suite's time source: Now is a settable instant
// and After parks a waiter fired by Advance. Nothing moves unless a
// test moves it, so lease expiry, backoff gates and liveness horizons
// happen exactly when scripted. Parked/BlockUntil expose the waiters,
// so a test moves time only once every goroutine driven by the clock
// has observed the previous step.
type fakeClock struct {
	mu      sync.Mutex
	parked  sync.Cond // signalled whenever a waiter parks
	now     time.Time
	waiters []fakeWaiter
}

type fakeWaiter struct {
	at time.Time
	ch chan time.Time
}

func newFakeClock() *fakeClock {
	c := &fakeClock{now: time.Unix(1_000_000, 0)}
	c.parked.L = &c.mu
	return c
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := make(chan time.Time, 1)
	c.waiters = append(c.waiters, fakeWaiter{at: c.now.Add(d), ch: ch})
	c.parked.Broadcast()
	return ch
}

// Parked returns the number of waiters After holds that no Advance has
// fired yet.
func (c *fakeClock) Parked() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters)
}

// BlockUntil blocks until at least n waiters are parked.
func (c *fakeClock) BlockUntil(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.waiters) < n {
		c.parked.Wait()
	}
}

// Advance moves the clock and fires every waiter whose deadline passed.
func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	var keep []fakeWaiter
	var fire []fakeWaiter
	for _, w := range c.waiters {
		if !c.now.Before(w.at) {
			fire = append(fire, w)
		} else {
			keep = append(keep, w)
		}
	}
	c.waiters = keep
	now := c.now
	c.mu.Unlock()
	for _, w := range fire {
		w.ch <- now
	}
}

// advanceUntil advances the fake clock step by step until cond holds or
// the simulated budget is spent. Each step waits until `waiters`
// goroutines — every goroutine the scenario drives by the clock — are
// parked in After, so each has acted on the previous step before time
// moves again. cond may turn true while some are still busy (a run
// returning, a worker reporting), so the wait re-checks it; real time
// plays no part.
func advanceUntil(t *testing.T, clk *fakeClock, waiters int, cond func() bool, step, budget time.Duration) {
	t.Helper()
	for advanced := time.Duration(0); !cond(); advanced += step {
		if advanced >= budget {
			t.Fatalf("condition not reached after advancing %v", advanced)
		}
		for clk.Parked() < waiters {
			if cond() {
				return
			}
			runtime.Gosched()
		}
		clk.Advance(step)
	}
}
