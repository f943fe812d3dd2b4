package pgas

// Per-task deterministic random streams (splitmix64). Benchmarks and
// workload generators draw from the task's Ctx so that a given
// (system seed, locale, task) triple always produces the same stream,
// which keeps workloads reproducible across runs and backends.

// rngSeed derives an initial splitmix64 state from the system seed,
// the locale id, and the task id.
func rngSeed(seed, locale, task uint64) uint64 {
	x := seed ^ locale*0x9e3779b97f4a7c15 ^ task*0xbf58476d1ce4e5b9
	// One scramble round so similar inputs diverge immediately.
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// RandUint64 returns the next value of the task's private stream.
func (c *Ctx) RandUint64() uint64 {
	c.rng += 0x9e3779b97f4a7c15
	z := c.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// RandIntn returns a uniform int in [0, n). It panics if n <= 0.
func (c *Ctx) RandIntn(n int) int {
	if n <= 0 {
		panic("pgas: RandIntn with n <= 0")
	}
	return int(c.RandUint64() % uint64(n))
}
