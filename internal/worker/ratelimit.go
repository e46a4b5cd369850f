package worker

import (
	"sync"
	"sync/atomic"
	"time"
)

// RateLimiter is a token bucket used by the input rate controller of the
// I/O layer (INPUT_RATE control tuples adjust it at runtime).
type RateLimiter struct {
	// unlimited mirrors rate <= 0 so the common unthrottled Allow is one
	// atomic load instead of a mutex round trip.
	unlimited atomic.Bool

	mu     sync.Mutex
	rate   float64 // tokens per second; <= 0 means unlimited
	tokens float64
	burst  float64
	last   time.Time
}

// NewRateLimiter builds a limiter; rate <= 0 means unlimited.
func NewRateLimiter(rate float64) *RateLimiter {
	l := &RateLimiter{last: time.Now()}
	l.SetRate(rate)
	return l
}

// SetRate changes the sustained rate; <= 0 disables limiting.
func (l *RateLimiter) SetRate(rate float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.rate = rate
	l.unlimited.Store(rate <= 0)
	l.burst = rate / 100
	if l.burst < 1 {
		l.burst = 1
	}
	if l.tokens > l.burst {
		l.tokens = l.burst
	}
}

// Rate returns the configured rate.
func (l *RateLimiter) Rate() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rate
}

// Allow consumes one token if available.
func (l *RateLimiter) Allow() bool {
	if l.unlimited.Load() {
		return true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.rate <= 0 {
		return true
	}
	now := time.Now()
	l.tokens += l.rate * now.Sub(l.last).Seconds()
	l.last = now
	if l.tokens > l.burst {
		l.tokens = l.burst
	}
	if l.tokens >= 1 {
		l.tokens--
		return true
	}
	return false
}
