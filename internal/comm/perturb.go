package comm

// Perturbation is per-locale latency fault injection: a multiplier per
// locale applied to every injected delay whose source or destination
// is that locale. It is the policy half of the workload engine's fault
// modes — a "slow locale" (one node with a degraded NIC or a noisy
// neighbour) is a Perturbation with one scale above 1.0, and a
// uniformly stretched network is one with every scale above 1.0. The
// pgas dispatch layer consults PairScale at every delay site,
// aggregated flush costs included, so a perturbed locale slows both the
// traffic it initiates and the traffic aimed at it — exactly how a slow
// node hurts a real PGAS job.
//
// Perturbation scales only injected *latency*; communication counters
// are unaffected, so counter-asserted evidence stays exact under any
// fault plan.
//
// Beyond latency, a Perturbation is also the fault plan's liveness
// half: Down marks crashed (fail-stop) locales and Partitions lists
// locale pairs that cannot reach each other. The dispatch layer
// consults Reachable before every remote operation and refuses when
// the destination is dead or the pair is partitioned. The two refusal
// causes settle differently: a crash is permanent, so its ops drain to
// the OpsLost ledger, while a partition is transient — both endpoints
// are alive and the pair may heal — so its ops park in the retry plane
// (Parking) and book OpsParked/OpsRedelivered/OpsExpired instead.
// Liveness, unlike latency scaling, *does* change counter totals, but
// only through those ledgers: a refused op increments exactly one of
// them and nothing else.
//
// The zero value (no scales, no faults) is "no perturbation" and costs
// one branch per delay.
type Perturbation struct {
	// Scales[i] multiplies every delay touching locale i. Entries <= 0
	// and locales beyond the slice are treated as the nominal 1.0.
	Scales []float64 `json:"scales,omitempty"`

	// Down[i] marks locale i crashed. A crash is fail-stop: the locale
	// issues nothing new and every operation aimed at it is refused
	// with a counted OpsLost. Locales beyond the slice are alive.
	Down []bool `json:"down,omitempty"`

	// Partitions are unordered locale pairs that cannot exchange
	// traffic in either direction (both endpoints stay alive and keep
	// talking to everyone else). Unlike Down, a partition is
	// repairable: WithoutPartition (pgas.System.Heal) removes a pair
	// and the severed traffic flows again.
	Partitions [][2]int `json:"partitions,omitempty"`
}

// Faulted reports whether the plan carries liveness faults (crashes or
// partitions) that the dispatch layer must gate operations on.
func (p Perturbation) Faulted() bool {
	return len(p.Down) > 0 || len(p.Partitions) > 0
}

// Alive reports whether locale l is up under this plan. Locales with
// no Down entry are alive, so the zero plan declares everyone alive.
func (p Perturbation) Alive(l int) bool {
	return l < 0 || l >= len(p.Down) || !p.Down[l]
}

// Reachable reports whether src can currently exchange traffic with
// dst: both endpoints alive and the pair not partitioned. Reachability
// is symmetric, matching the unordered Partitions pairs.
func (p Perturbation) Reachable(src, dst int) bool {
	return p.Alive(src) && p.Alive(dst) && !p.Partitioned(src, dst)
}

// Partitioned reports whether the unordered pair (src, dst) is
// currently severed — the partition-specific half of Reachable,
// letting the dispatch layer distinguish a transient partition refusal
// (park and retry) from a permanent crash refusal (lost).
func (p Perturbation) Partitioned(src, dst int) bool {
	for _, pr := range p.Partitions {
		if (pr[0] == src && pr[1] == dst) || (pr[0] == dst && pr[1] == src) {
			return true
		}
	}
	return false
}

// WithDown returns a copy of the plan with locale l of n marked dead.
// The existing scales and partitions carry over, so a runtime crash
// composes with whatever latency plan was already installed.
func (p Perturbation) WithDown(n, l int) Perturbation {
	down := make([]bool, n)
	copy(down, p.Down)
	if l >= 0 && l < n {
		down[l] = true
	}
	q := p
	q.Down = down
	return q
}

// WithPartition returns a copy of the plan with the unordered pair
// (a, b) severed; severing an already-severed pair returns the plan
// unchanged, so sever is idempotent.
func (p Perturbation) WithPartition(a, b int) Perturbation {
	if p.Partitioned(a, b) {
		return p
	}
	q := p
	q.Partitions = append(append([][2]int(nil), p.Partitions...), [2]int{a, b})
	return q
}

// WithoutPartition returns a copy of the plan with the unordered pair
// (a, b) healed, and reports whether the pair was severed — false
// means the plan is returned unchanged and the caller asked to heal a
// link that was never cut.
func (p Perturbation) WithoutPartition(a, b int) (Perturbation, bool) {
	if !p.Partitioned(a, b) {
		return p, false
	}
	parts := make([][2]int, 0, len(p.Partitions)-1)
	for _, pr := range p.Partitions {
		if (pr[0] == a && pr[1] == b) || (pr[0] == b && pr[1] == a) {
			continue
		}
		parts = append(parts, pr)
	}
	if len(parts) == 0 {
		parts = nil
	}
	q := p
	q.Partitions = parts
	return q, true
}

// ScaleFor returns the multiplier for one locale (1.0 when the locale
// has no entry or a non-positive one).
func (p Perturbation) ScaleFor(locale int) float64 {
	if locale < 0 || locale >= len(p.Scales) || p.Scales[locale] <= 0 {
		return 1.0
	}
	return p.Scales[locale]
}

// PairScale returns the multiplier for a communication event between
// src and dst: the slower endpoint dominates, as a message is only as
// fast as the slowest NIC it crosses.
func (p Perturbation) PairScale(src, dst int) float64 {
	s, d := p.ScaleFor(src), p.ScaleFor(dst)
	if d > s {
		return d
	}
	return s
}

// SlowLocale builds the classic fault plan: locale `slow` of n runs
// `factor` times slower than the rest. factor <= 1 still builds the
// plan (a "fast locale" is occasionally useful in tests).
func SlowLocale(n, slow int, factor float64) Perturbation {
	scales := make([]float64, n)
	for i := range scales {
		scales[i] = 1.0
	}
	if slow >= 0 && slow < n {
		scales[slow] = factor
	}
	return Perturbation{Scales: scales}
}
