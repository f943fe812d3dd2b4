package pgas

import "sync"

// Reductions over task contributions, the analogues of Chapel's
// `+ reduce` / `min reduce` / `max reduce` intents, for the common
// numeric cases of workloads built on the runtime. (Listing 4's
// `&& reduce` needs none: its scan visits the locales in turn on one
// goroutine, Ctx.VisitLocales, and folds into a local bool.) All are
// safe for concurrent contribution; read the result only after
// contributors join.

// SumReduce accumulates an int64 sum.
type SumReduce struct {
	mu sync.Mutex
	v  int64
}

// Add folds x into the sum.
func (r *SumReduce) Add(x int64) {
	r.mu.Lock()
	r.v += x
	r.mu.Unlock()
}

// Value returns the reduced sum.
func (r *SumReduce) Value() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.v
}

// MinReduce tracks an int64 minimum; empty reductions have no value.
type MinReduce struct {
	mu  sync.Mutex
	v   int64
	set bool
}

// Add folds x into the minimum.
func (r *MinReduce) Add(x int64) {
	r.mu.Lock()
	if !r.set || x < r.v {
		r.v, r.set = x, true
	}
	r.mu.Unlock()
}

// Value returns the minimum and whether any value was contributed.
func (r *MinReduce) Value() (int64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.v, r.set
}

// MaxReduce tracks an int64 maximum; empty reductions have no value.
type MaxReduce struct {
	mu  sync.Mutex
	v   int64
	set bool
}

// Add folds x into the maximum.
func (r *MaxReduce) Add(x int64) {
	r.mu.Lock()
	if !r.set || x > r.v {
		r.v, r.set = x, true
	}
	r.mu.Unlock()
}

// Value returns the maximum and whether any value was contributed.
func (r *MaxReduce) Value() (int64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.v, r.set
}
