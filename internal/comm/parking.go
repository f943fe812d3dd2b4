package comm

import "sync"

// ParkConfig configures the partition retry plane. The zero value is
// the enabled default policy; Disable reverts partition refusals to
// fail-stop accounting (they drain to OpsLost exactly like crash
// refusals — the ablation baseline).
type ParkConfig struct {
	// Disable turns the retry plane off.
	Disable bool

	// Capacity bounds each per-destination parked-op buffer. An op
	// parked into a full buffer still books OpsParked but is expired on
	// the spot (OpsExpired), so the settlement invariant survives
	// overflow. <= 0 selects DefaultParkCapacity.
	Capacity int

	// DeadlineNS bounds how long an op may stay parked: a settlement
	// pass expires every op older than this instead of redelivering
	// it. <= 0 selects DefaultParkDeadlineNS.
	DeadlineNS int64
}

// Default retry-plane policy values.
const (
	DefaultParkCapacity   = 4096
	DefaultParkDeadlineNS = 2_000_000_000 // 2s
)

// WithDefaults returns the config with every unset field replaced by
// its default.
func (c ParkConfig) WithDefaults() ParkConfig {
	if c.Capacity <= 0 {
		c.Capacity = DefaultParkCapacity
	}
	if c.DeadlineNS <= 0 {
		c.DeadlineNS = DefaultParkDeadlineNS
	}
	return c
}

// parkedOp is one refused operation waiting out a partition.
type parkedOp struct {
	op         Op
	deadlineNS int64
}

// parkDest is one destination's parked buffer. Its ops are in deadline
// order (Park never files an op due before the one ahead of it), so
// the ops a settlement pass expires are always a prefix.
type parkDest struct {
	ops   []parkedOp
	bytes int64
}

// Parking is one locale's partition retry ledger: per-destination
// bounded buffers of ops refused because the source/destination pair
// was partitioned, reusing the aggregation layer's Op framing so a
// redelivered batch flows through the same bulk-transfer path a flush
// does. Ops enter via Park and leave exactly once, through Settle —
// redelivered when the pair is reachable again, or expired at the
// deadline, on overflow or at the final pass. Only a heal makes a pair
// reachable again, so only the heal's pass and the final one need
// run. The books are exact: after a final Settle, every op that ever
// booked OpsParked has booked exactly one of OpsRedelivered or
// OpsExpired.
//
// All methods are safe for concurrent use. The reachable callbacks run
// under the ledger lock, so they must not call back into the ledger;
// the redeliver callback runs outside it.
type Parking struct {
	src       int
	cfg       ParkConfig
	counters  *Counters
	redeliver func(dst int, batch []Op, bytes int64)

	mu    sync.Mutex
	dests []parkDest
}

// NewParking builds the retry ledger for source locale src of n, with
// counters booked against src and redeliver invoked (outside the lock,
// after OpsRedelivered is booked) for every batch that goes back out.
// A disabled config builds no ledger: it returns nil, which settles
// nothing and holds nothing, and must never be parked into.
func NewParking(src, n int, cfg ParkConfig, ctrs *Counters, redeliver func(dst int, batch []Op, bytes int64)) *Parking {
	if cfg.Disable {
		return nil
	}
	return &Parking{
		src:       src,
		cfg:       cfg.WithDefaults(),
		counters:  ctrs,
		redeliver: redeliver,
		dests:     make([]parkDest, n),
	}
}

// Park files one partition-refused op bound for dst, stamped against
// the caller-supplied monotonic clock, and reports whether it did. It
// asks reachable under the ledger lock first: a pair healed since the
// caller saw it severed parks nothing and books nothing, and Park
// returns false — deliver now. Otherwise the op books OpsParked and a
// heal's Settle, which takes the same lock after the heal is
// published, is sure to find it. An op that overflows the
// destination's buffer is expired immediately (still parked-then-
// expired, never silently dropped).
func (p *Parking) Park(dst int, op Op, nowNS int64, reachable func(dst int) bool) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if reachable(dst) {
		return false
	}
	p.counters.IncOpsParked(p.src, 1)
	d := &p.dests[dst]
	if len(d.ops) >= p.cfg.Capacity {
		p.counters.IncOpsExpired(p.src, 1)
		return true
	}
	deadline := nowNS + p.cfg.DeadlineNS
	if n := len(d.ops); n > 0 {
		deadline = max(deadline, d.ops[n-1].deadlineNS)
	}
	d.ops = append(d.ops, parkedOp{op: op, deadlineNS: deadline})
	d.bytes += op.Bytes
	return true
}

// Settle runs one pass over every destination: it expires the ops
// past their deadline, then redelivers the rest of a reachable
// destination as one batch. The final pass (system drain or shutdown)
// also expires whatever is left behind a pair still unreachable, so
// after it the ledger is empty and the books balance:
// OpsParked == OpsRedelivered + OpsExpired.
func (p *Parking) Settle(nowNS int64, final bool, reachable func(dst int) bool) {
	if p == nil {
		return
	}
	type batch struct {
		dst   int
		ops   []Op
		bytes int64
	}
	var out []batch
	p.mu.Lock()
	for dst := range p.dests {
		d := &p.dests[dst]
		due := 0
		for due < len(d.ops) && nowNS >= d.ops[due].deadlineNS {
			d.bytes -= d.ops[due].op.Bytes
			due++
		}
		rest := d.ops[due:]
		if len(rest) > 0 && reachable(dst) {
			ops := make([]Op, len(rest))
			for i := range rest {
				ops[i] = rest[i].op
			}
			out = append(out, batch{dst: dst, ops: ops, bytes: d.bytes})
			rest = nil
		} else if final {
			due += len(rest)
			rest = nil
		}
		if due > 0 {
			p.counters.IncOpsExpired(p.src, int64(due))
		}
		if len(rest) == 0 {
			d.ops, d.bytes = nil, 0
		} else {
			d.ops = rest
		}
	}
	p.mu.Unlock()
	for _, b := range out {
		p.counters.IncOpsRedelivered(p.src, int64(len(b.ops)))
		p.redeliver(b.dst, b.ops, b.bytes)
	}
}

// Parked returns the number of ops currently waiting in the ledger
// (diagnostic; racy by nature against concurrent parks and passes).
func (p *Parking) Parked() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for i := range p.dests {
		n += len(p.dests[i].ops)
	}
	return n
}
