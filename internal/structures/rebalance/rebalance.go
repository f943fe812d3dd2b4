// Package rebalance closes the loop between the measurement plane and
// ownership: a Controller samples windowed comm.Matrix column deltas —
// the per-locale inbound traffic the diagnostics already maintain
// contention-free — and migrates the hottest entries (buckets,
// segments) off any locale whose window exceeds a configurable
// imbalance ratio, with hysteresis so a flapping hot set doesn't
// thrash ownership back and forth.
//
// The controller is structure-agnostic: anything that can enumerate
// its entries, report their owner and heat, and migrate one entry
// satisfies Target (hashmap.Map does, at per-bucket granularity). The
// controller only decides *what* to move *where*; the target owns the
// epoch-coherent handoff itself.
package rebalance

import (
	"sort"

	"gopgas/internal/comm"
	"gopgas/internal/pgas"
)

// Target is a structure whose entry ownership the controller may
// rearrange. Entry indexing is dense [0, NumEntries). EntryHeat is a
// monotone traffic counter per entry; the controller ranks candidates
// by its per-window delta. Migrate performs the structure's own
// handoff protocol and reports the payload bytes shipped and whether
// it actually ran (it may decline, e.g. when a concurrent migration
// already moved the entry).
type Target interface {
	NumEntries() int
	EntryOwner(e int) int
	EntryHeat(e int) int64
	Migrate(c *pgas.Ctx, e, dst int) (bytes int64, ok bool)
}

// Config tunes the control loop. The zero value of each knob selects
// its documented default.
type Config struct {
	// Ratio is the imbalance trigger: a window acts only when the
	// busiest inbound column's delta exceeds Ratio × the per-locale
	// mean delta. Must be > 1 (1 would fire on perfectly balanced
	// traffic); 0 selects 2.
	Ratio float64
	// MinEvents is the minimum total inbound events a window must carry
	// before it is judged at all — launch and handoff residue alone
	// must not look like imbalance. 0 selects 1.
	MinEvents int64
	// MaxMoves caps migrations per window; 0 selects 4.
	MaxMoves int
	// Cooldown is the hysteresis that keeps a flapping hot set from
	// thrashing ownership: a source that migrated in window w is not
	// eligible again before window w+Cooldown (1 = eligible at the
	// very next window). 0 selects 1.
	Cooldown int
}

// withDefaults fills zero knobs.
func (cfg Config) withDefaults() Config {
	if cfg.Ratio == 0 {
		cfg.Ratio = 2
	}
	if cfg.MinEvents == 0 {
		cfg.MinEvents = 1
	}
	if cfg.MaxMoves == 0 {
		cfg.MaxMoves = 4
	}
	if cfg.Cooldown == 0 {
		cfg.Cooldown = 1
	}
	return cfg
}

// Stats is the controller's cumulative evidence: windows judged,
// migrations issued (only those the target confirmed), and the payload
// bytes those migrations shipped — cross-checkable against the comm
// layer's MigRetired/MigBytes books.
type Stats struct {
	Steps      int64
	Migrations int64
	BytesMoved int64
}

// Controller drives the rebalancing policy. It is not safe for
// concurrent use: exactly one task calls Step (typically a periodic
// control loop beside the workers, with its own Ctx).
type Controller struct {
	tgt     Target
	cfg     Config
	matrix  *comm.Matrix
	locales int

	lastCols []int64
	lastHeat []int64
	rest     []int // per-locale cooldown windows remaining
	stats    Stats
}

// NewController builds a controller over the system's comm matrix,
// anchoring the first window at the current totals so pre-existing
// traffic (setup, loading) never counts as imbalance.
func NewController(c *pgas.Ctx, tgt Target, cfg Config) *Controller {
	ct := &Controller{
		tgt:      tgt,
		cfg:      cfg.withDefaults(),
		matrix:   c.Sys().Matrix(),
		locales:  c.NumLocales(),
		lastHeat: make([]int64, tgt.NumEntries()),
		rest:     make([]int, c.NumLocales()),
	}
	ct.lastCols = ct.matrix.ColTotals()
	for e := range ct.lastHeat {
		ct.lastHeat[e] = tgt.EntryHeat(e)
	}
	return ct
}

// Stats returns the cumulative controller evidence.
func (ct *Controller) Stats() Stats { return ct.stats }

// Step judges one window and returns how many migrations it issued:
// difference the inbound columns and entry heats against the previous
// window, find the over-ratio source (if any, and not cooling down),
// and move its hottest entries to the coldest destinations, round-
// robin. Deterministic for a deterministic traffic history: ties break
// by entry and locale index.
func (ct *Controller) Step(c *pgas.Ctx) int {
	ct.stats.Steps++

	cols := ct.matrix.ColTotals()
	delta := make([]int64, ct.locales)
	var total int64
	for l := range delta {
		delta[l] = cols[l] - ct.lastCols[l]
		total += delta[l]
	}
	ct.lastCols = cols

	heat := make([]int64, len(ct.lastHeat))
	for e := range heat {
		h := ct.tgt.EntryHeat(e)
		heat[e] = h - ct.lastHeat[e]
		ct.lastHeat[e] = h
	}

	for l := range ct.rest {
		if ct.rest[l] > 0 {
			ct.rest[l]--
		}
	}

	if total < ct.cfg.MinEvents {
		return 0
	}
	src := 0
	for l := 1; l < ct.locales; l++ {
		if delta[l] > delta[src] {
			src = l
		}
	}
	mean := float64(total) / float64(ct.locales)
	if float64(delta[src]) <= ct.cfg.Ratio*mean {
		return 0
	}
	if ct.rest[src] > 0 {
		return 0
	}

	// Candidates: the source's entries with traffic this window,
	// hottest first (ties by entry index, for determinism).
	var cands []int
	for e := 0; e < ct.tgt.NumEntries(); e++ {
		if ct.tgt.EntryOwner(e) == src && heat[e] > 0 {
			cands = append(cands, e)
		}
	}
	if len(cands) == 0 {
		return 0
	}
	sort.Slice(cands, func(i, j int) bool {
		if heat[cands[i]] != heat[cands[j]] {
			return heat[cands[i]] > heat[cands[j]]
		}
		return cands[i] < cands[j]
	})
	if len(cands) > ct.cfg.MaxMoves {
		cands = cands[:ct.cfg.MaxMoves]
	}

	// Destinations: every other locale, coldest first (ties by locale
	// index), assigned round-robin so one window's moves spread out.
	cold := make([]int, 0, ct.locales-1)
	for l := 0; l < ct.locales; l++ {
		if l != src {
			cold = append(cold, l)
		}
	}
	sort.Slice(cold, func(i, j int) bool {
		if delta[cold[i]] != delta[cold[j]] {
			return delta[cold[i]] < delta[cold[j]]
		}
		return cold[i] < cold[j]
	})

	moves := 0
	for i, e := range cands {
		if bytes, ok := ct.tgt.Migrate(c, e, cold[i%len(cold)]); ok {
			ct.stats.Migrations++
			ct.stats.BytesMoved += bytes
			moves++
		}
	}
	if moves > 0 {
		ct.rest[src] = ct.cfg.Cooldown
	}
	return moves
}
