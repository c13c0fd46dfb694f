package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"
)

// Options configures the simplex solver.
type Options struct {
	// Tol is the primal feasibility / dual optimality tolerance.
	Tol float64
	// PivTol is the minimum acceptable pivot magnitude.
	PivTol float64
	// MaxIter caps the total iteration count (0 = automatic).
	MaxIter int
	// Ctx, when non-nil, cancels the solve: the main loop polls it every
	// CheckEvery iterations and returns an error wrapping the context's
	// cause (errors.Is(err, context.Canceled) etc. hold).
	Ctx context.Context
	// Timeout caps the solve's wall-clock time (0 = unlimited). On expiry
	// the solve returns an error wrapping ErrTimeout.
	Timeout time.Duration
	// CheckEvery is the number of iterations between cancellation and
	// deadline checks (0 = automatic).
	CheckEvery int
	// BlandAfter is the number of consecutive degenerate iterations after
	// which the solver switches to Bland's rule (0 = automatic).
	BlandAfter int
	// DenseLimit is the basis size up to which the dense factorization is
	// used when the backend choice is automatic (0 = automatic, currently
	// 25: BenchmarkFactorCycle puts the dense/sparse crossover near 25
	// rows on the simplex's per-iteration factorization traffic, with the
	// sparse backend ahead by orders of magnitude at a few hundred rows).
	DenseLimit int
	// Factor selects the factorization backend (zero value = automatic:
	// dense up to DenseLimit rows, sparse beyond). Being a value it is safe
	// to share one Options struct across concurrent solves.
	Factor FactorBackend
	// Factorizer overrides the backend choice with a caller-provided
	// instance. It is stateful: never share an Options struct carrying a
	// Factorizer across concurrent solves. Prefer Factor.
	Factorizer Factorizer
	// SectionSize is the number of columns scanned per iteration by the
	// partial-pricing rule (0 = automatic; negative = full Dantzig
	// pricing). Partial pricing scans a rotating window and picks the best
	// eligible column in it, falling back to a full sweep before declaring
	// optimality.
	SectionSize int
	// Start, when non-nil, seeds the solve with a prior basis (warm
	// start). The snapshot is validated against the problem shape and for
	// internal consistency; on any mismatch the solver silently falls back
	// to the crash basis, so a stale Start can cost speed but never
	// correctness. Stats.WarmSolves/ColdSolves report which path ran.
	Start *Basis
	// Pricing selects the entering-column rule (zero value = devex).
	// PricingDantzig restores the pre-devex rotating-window partial
	// pricing exactly.
	Pricing PricingRule
	// Presolve controls the presolve/postsolve layer (zero value = on).
	// PresolveOff solves the problem as given, exactly as before the
	// layer existed.
	Presolve PresolveMode
}

func (o Options) withDefaults(m, n int) Options {
	if o.Tol == 0 {
		o.Tol = 1e-7
	}
	if o.PivTol == 0 {
		o.PivTol = 1e-9
	}
	if o.MaxIter == 0 {
		o.MaxIter = 20000 + 100*(m+n)
	}
	if o.BlandAfter == 0 {
		o.BlandAfter = 1000
	}
	if o.DenseLimit == 0 {
		o.DenseLimit = 25
	}
	if o.SectionSize == 0 {
		o.SectionSize = 2000
		if n < 4*o.SectionSize {
			o.SectionSize = -1 // small problems: full pricing
		}
	}
	if o.CheckEvery == 0 {
		o.CheckEvery = 64
	}
	if o.Pricing == PricingAuto {
		o.Pricing = PricingDevex
	}
	return o
}

// Solve compiles nothing; it solves an already compiled Problem.
func Solve(p *Problem, opts Options) (*Solution, error) {
	if opts.Presolve != PresolveOff && p.numRows > 0 {
		return solvePresolved(p, opts)
	}
	s := newSimplex(p, opts)
	return s.solve()
}

// SolveModel compiles and solves a Model.
func SolveModel(m *Model, opts Options) (*Solution, error) {
	p, err := m.Compile()
	if err != nil {
		return nil, err
	}
	return Solve(p, opts)
}

// Column status markers.
type colStatus uint8

const (
	nonbasicLower colStatus = iota
	nonbasicUpper
	nonbasicFree
	basic
)

type simplex struct {
	p    *Problem
	opts Options
	m, n int // rows, total columns (struct + slack)

	fac    Factorizer
	status []colStatus
	basis  []int     // column basic in each row position
	x      []float64 // current value of every column
	xB     []float64 // values of basic columns (mirror of x at basis positions)

	cB []float64 // basic cost vector for the current phase
	// comp weights the true objective into the phase-1 cost vector
	// (cB[i] = band + comp*obj): feasibility restoration then prefers, among
	// equally infeasibility-reducing pivots, the ones that do not degrade
	// the real objective. Zero for cold starts (pure phase 1); set for warm
	// starts, where the seed basis is near-optimal and a cost-blind phase 1
	// would wander away from it only for phase 2 to walk all the way back.
	comp float64
	// p1band mirrors the infeasibility band (-1/0/+1) of each basic column
	// while phase 1 runs; with comp folded into cB the bands need their own
	// store for the flip detection to compare against.
	p1band []float64
	y      []float64 // duals scratch
	// w is the FTRAN image of the entering column, zero off wPat (its
	// ascending nonzero positions): each FTRAN clears its predecessor over
	// that pattern instead of over all m rows.
	w      []float64
	wPat   []int32
	colPat []int32   // FTRAN input: the entering column's rows
	rhs0   []float64 // scratch for -N*xN
	// densePat is the nz list of the dense right-hand sides (recomputeXB,
	// computeDuals).
	densePat []int32

	iter       int
	degenerate int
	bland      bool
	priceStart int
	warm       bool // solve was seeded from Options.Start

	devex bool      // devex pricing active
	gamma []float64 // devex weight per column
	// beta is the last sparse BTRAN result (a pivot row of B^-1 or a dual
	// correction), zero off betaPat, its ascending nonzero rows.
	beta    []float64
	betaPat []int32
	unitPat [1]int32 // nz list of a unit BTRAN input

	// Devex reduced-cost cache: d_j maintained incrementally across pivots
	// (d'_j = d_j - (d_q/alpha_q) alpha_j over the pivot row's pattern)
	// instead of recomputed from fresh duals every iteration. dDirty forces
	// a rebuild — set on phase entry, refactorization and pivot rejection,
	// where the incremental formula stops holding.
	d        []float64
	dDirty   bool
	dAge     int // pivots absorbed since the last rebuild
	maxGamma float64

	// Phase-1 cost flips of the current iteration: basis positions whose
	// infeasibility band changed when the basics moved, and the band delta.
	// A sparse BTRAN of the deltas folds the cost change into the cache
	// exactly (applyCostCorrection) instead of forcing a full rebuild.
	flipPos   []int32
	flipDelta []float64

	// Row-major (CSR) copy of p.cols for the devex pivot-row gather.
	rowPtr []int32
	rowCol []int32
	rowVal []float64
	// Stamped scratch holding the pivot row alpha = beta^T A sparsely.
	alpha     []float64
	alphaPat  []int32
	alphaFlag []int32
	alphaMark int32

	// Shunned columns: entering candidates whose pivot was undone because
	// the pivoted basis had no usable factorization. A stamp equal to
	// shunGen excludes the column from pricing; the set clears (by bumping
	// shunGen) at the next successful pivot, which changes the basis the
	// dependence was measured against. Allocated on first rejection.
	shunStamp []int32
	shunGen   int32
	anyShun   bool

	stats     Stats
	start     time.Time
	deadline  time.Time // zero when no timeout is set
	lastCheck int       // iteration count at the last interrupt poll
}

func newSimplex(p *Problem, opts Options) *simplex {
	m := p.numRows
	n := p.numStruct + p.numRows
	opts = opts.withDefaults(m, n)
	s := &simplex{
		p: p, opts: opts, m: m, n: n,
		status: make([]colStatus, n),
		basis:  make([]int, m),
		x:      make([]float64, n),
		xB:     make([]float64, m),
		cB:     make([]float64, m),
		p1band: make([]float64, m),
		y:      make([]float64, m),
		w:      make([]float64, m),
		rhs0:   make([]float64, m),
	}
	switch {
	case opts.Factorizer != nil:
		s.fac = opts.Factorizer
	case opts.Factor == FactorDense:
		s.fac = NewDenseFactor(0)
	case opts.Factor == FactorSparse:
		s.fac = NewSparseFactor(0)
	case m <= opts.DenseLimit:
		s.fac = NewDenseFactor(0)
	default:
		s.fac = NewSparseFactor(0)
	}
	if opts.Pricing == PricingDevex {
		s.devex = true
		s.initDevex()
	}
	return s
}

func (s *simplex) solve() (*Solution, error) {
	s.start = time.Now()
	if s.opts.Timeout > 0 {
		s.deadline = s.start.Add(s.opts.Timeout)
	}
	// Catch an already-canceled context (or an already-expired deadline)
	// before any factorization work.
	if err := s.checkInterrupt(); err != nil {
		return nil, err
	}
	if s.m == 0 {
		return s.solveUnconstrained()
	}
	// Seed from the caller's basis when one is given and usable; a
	// snapshot that fails validation falls back to the all-slack crash
	// basis (structural variables at a bound). A snapshot that installs
	// but factorizes singular — the usual fate of a basis carried across
	// a coefficient change, where two basic columns that were independent
	// under the old values have become parallel — is repaired rather than
	// discarded: the factorization reports the dependent position and an
	// unpivoted row, and swapping that row's slack into the position
	// removes one dependency per retry.
	if b := s.opts.Start; b.compatibleWith(s.p) {
		s.installBasis(b)
		if rf, ok := s.fac.(repairingFactorizer); ok {
			// Single-pass repair: the factorization swaps a nonbasic slack
			// into each dependent position as it goes and reports the
			// swaps; the displaced columns rest at their crash bounds.
			swaps, err := rf.FactorRepair(s.p.cols, s.basis)
			for _, sw := range swaps {
				s.status[sw.old] = s.startStatus(sw.old)
				s.x[sw.old] = s.startValue(sw.old)
				s.status[s.basis[sw.pos]] = basic
				s.stats.BasisRepairs++
			}
			s.warm = err == nil
		} else {
			// Each repair consumes one distinct nonbasic slack, so m retries
			// bound the loop; repairBasis itself reports exhaustion earlier.
			// Factorization fails at the first dependent column in its
			// elimination order, so failed attempts stay cheap.
			for try := 0; ; try++ {
				err := s.fac.Factor(s.p.cols, s.basis)
				if err == nil {
					s.warm = true
					break
				}
				var sing *singularBasisError
				if try >= s.m || !errors.As(err, &sing) || !s.repairBasis(sing) {
					break
				}
				s.stats.BasisRepairs++
			}
		}
	}
	if !s.warm {
		s.installCrashBasis()
		if err := s.fac.Factor(s.p.cols, s.basis); err != nil {
			return nil, err
		}
	}
	s.stats.InitialFactorizations++
	s.recomputeXB()
	// A warm seed first tries the dual-simplex fast path: restore dual
	// feasibility with bound flips, then pivot the drifted basics feasible
	// while keeping the basis dual feasible. When it converges the phases
	// below reduce to a certifying pricing sweep; when it bails the primal
	// phases continue from its (still consistent) state.
	if s.warm {
		if err := s.dualReoptimize(); err != nil {
			return nil, err
		}
	}

	// Phase 1: drive infeasibility to zero. A warm seed is near-optimal,
	// so its phase 1 runs with a composite cost — the infeasibility bands
	// plus a small multiple of the true objective — that restores
	// feasibility without walking away from the seed; a cost-blind phase 1
	// would drift to an arbitrary feasible basis and leave phase 2 to walk
	// all the way back. If the composite stalls short of feasibility (the
	// cost term can block the last band-reducing pivots), a pure phase 1
	// finishes the job before infeasibility is declared.
	if s.infeasibility() > s.opts.Tol {
		if s.warm {
			s.comp = compositeWeight(s.p.obj)
		}
		if err := s.loop(true); err != nil {
			return nil, err
		}
		if s.comp != 0 {
			s.comp = 0
			if s.infeasibility() > s.opts.Tol {
				s.dDirty = true
				if err := s.loop(true); err != nil {
					return nil, err
				}
			}
		}
		if s.infeasibility() > s.opts.Tol*math.Max(1, s.scale()) {
			return nil, ErrInfeasible
		}
	}
	s.stats.Phase1Iterations = s.iter - s.stats.DualIterations
	// Phase 2: optimize the true objective.
	if err := s.loop(false); err != nil {
		return nil, err
	}
	return s.buildSolution(), nil
}

// checkInterrupt polls the context and the wall-clock deadline. The
// returned errors are distinguishable: context cancellation wraps the
// context's cause, a timeout wraps ErrTimeout.
func (s *simplex) checkInterrupt() error {
	if ctx := s.opts.Ctx; ctx != nil {
		select {
		case <-ctx.Done():
			return fmt.Errorf("lp: solve interrupted after %d iterations: %w", s.iter, context.Cause(ctx))
		default:
		}
	}
	if !s.deadline.IsZero() && time.Now().After(s.deadline) {
		return fmt.Errorf("%w: budget %v exhausted after %d iterations", ErrTimeout, s.opts.Timeout, s.iter)
	}
	return nil
}

// solveUnconstrained handles the degenerate m == 0 case.
func (s *simplex) solveUnconstrained() (*Solution, error) {
	sol := &Solution{X: make([]float64, s.p.numStruct)}
	obj := 0.0
	for j := 0; j < s.p.numStruct; j++ {
		c := s.p.obj[j]
		switch {
		case c > 0:
			if math.IsInf(s.p.lo[j], -1) {
				return nil, ErrUnbounded
			}
			sol.X[j] = s.p.lo[j]
		case c < 0:
			if math.IsInf(s.p.hi[j], 1) {
				return nil, ErrUnbounded
			}
			sol.X[j] = s.p.hi[j]
		default:
			sol.X[j] = s.startValue(j)
		}
		obj += c * sol.X[j]
	}
	if s.p.sense == Maximize {
		obj = -obj
	}
	sol.Objective = obj
	s.finalizeStats()
	sol.Stats = s.stats
	return sol, nil
}

// finalizeStats stamps the per-solve totals and attributes them to the
// warm- or cold-start ledger so aggregators can tell the two apart.
func (s *simplex) finalizeStats() {
	s.stats.Iterations = s.iter
	s.stats.Wall = time.Since(s.start)
	s.stats.PricingRule = s.opts.Pricing.String()
	if s.warm {
		s.stats.WarmSolves = 1
		s.stats.WarmIterations = s.iter
		s.stats.WarmRefactorizations = s.stats.Refactorizations
	} else {
		s.stats.ColdSolves = 1
		s.stats.ColdIterations = s.iter
		s.stats.ColdRefactorizations = s.stats.Refactorizations
	}
}

func (s *simplex) startStatus(j int) colStatus {
	lo, hi := s.p.lo[j], s.p.hi[j]
	switch {
	case math.IsInf(lo, -1) && math.IsInf(hi, 1):
		return nonbasicFree
	case math.IsInf(lo, -1):
		return nonbasicUpper
	default:
		// Prefer the bound closer to zero for finite ranges.
		if !math.IsInf(hi, 1) && abs(hi) < abs(lo) {
			return nonbasicUpper
		}
		return nonbasicLower
	}
}

func (s *simplex) startValue(j int) float64 {
	switch s.startStatus(j) {
	case nonbasicLower:
		return s.p.lo[j]
	case nonbasicUpper:
		return s.p.hi[j]
	default:
		return 0
	}
}

// recomputeXB solves B*xB = -N*xN from scratch.
func (s *simplex) recomputeXB() {
	for i := range s.rhs0 {
		s.rhs0[i] = 0
	}
	for j := 0; j < s.n; j++ {
		if s.status[j] == basic || s.x[j] == 0 {
			continue
		}
		xj := s.x[j]
		ri, rv := s.p.cols.Col(j)
		for k, r := range ri {
			s.rhs0[r] -= rv[k] * xj
		}
	}
	s.densePat = s.fac.Ftran(s.rhs0, nonzeros(s.rhs0, s.densePat), s.densePat)
	copy(s.xB, s.rhs0)
	for i, q := range s.basis {
		s.x[q] = s.xB[i]
	}
}

// ftranColumn sets w = B^-1 a_q, clearing the previous image over its
// pattern first.
func (s *simplex) ftranColumn(q int) {
	for _, i := range s.wPat {
		s.w[i] = 0
	}
	ri, rv := s.p.cols.Col(q)
	nz := s.colPat[:0]
	for k, r := range ri {
		s.w[r] = rv[k]
		nz = append(nz, int32(r))
	}
	s.colPat = nz
	s.wPat = s.fac.Ftran(s.w, nz, s.wPat)
}

// computeDuals sets y = B^-T cB.
func (s *simplex) computeDuals() {
	copy(s.y, s.cB)
	s.densePat = s.fac.Btran(s.y, nonzeros(s.y, s.densePat), s.densePat)
}

// infeasibility returns the total bound violation of the basic variables.
func (s *simplex) infeasibility() float64 {
	sum := 0.0
	for i, q := range s.basis {
		v := s.xB[i]
		if lo := s.p.lo[q]; v < lo {
			sum += lo - v
		} else if hi := s.p.hi[q]; v > hi {
			sum += v - hi
		}
	}
	return sum
}

// scale returns a magnitude estimate used to relativize tolerances.
func (s *simplex) scale() float64 {
	mx := 1.0
	for i := range s.xB {
		if a := abs(s.xB[i]); a > mx {
			mx = a
		}
	}
	return mx
}

// compositeWeight sizes the objective's share of a composite phase-1 cost:
// small enough that a unit of infeasibility (band magnitude 1) dominates
// the largest cost coefficient by two orders of magnitude, so feasibility
// progress is never traded away for cost improvement.
func compositeWeight(obj []float64) float64 {
	mx := 0.0
	for _, c := range obj {
		if a := abs(c); a > mx {
			mx = a
		}
	}
	if mx == 0 {
		return 0
	}
	return 0.02 / mx
}

// phase1Costs fills cB with the gradient of the infeasibility sum, plus
// comp times the true objective when a composite phase 1 is active.
func (s *simplex) phase1Costs() {
	tol := s.opts.Tol
	for i, q := range s.basis {
		v := s.xB[i]
		band := 0.0
		switch {
		case v < s.p.lo[q]-tol:
			band = -1
		case v > s.p.hi[q]+tol:
			band = 1
		}
		s.p1band[i] = band
		s.cB[i] = band + s.comp*s.p.obj[q]
	}
}

func (s *simplex) phase2Costs() {
	for i, q := range s.basis {
		s.cB[i] = s.p.obj[q]
	}
}

// reducedCost computes d_j = c_j - y . A_j for column j given duals in s.y.
func (s *simplex) reducedCost(j int, phase1 bool) float64 {
	var c float64
	if phase1 {
		c = s.comp * s.p.obj[j]
	} else {
		c = s.p.obj[j]
	}
	ri, rv := s.p.cols.Col(j)
	for k, r := range ri {
		c -= s.y[r] * rv[k]
	}
	return c
}

// score rates column j as an entering candidate; score <= tol means not
// eligible. dir is the movement direction of the entering variable.
func (s *simplex) score(j int, phase1 bool) (score, dir float64) {
	st := s.status[j]
	if st == basic {
		return 0, 0
	}
	if s.anyShun && s.shunStamp[j] == s.shunGen {
		return 0, 0
	}
	var d float64
	if s.devex {
		d = s.d[j] // cache is fresh: loop() rebuilds it before pricing
	} else {
		d = s.reducedCost(j, phase1)
	}
	switch st {
	case nonbasicLower:
		return -d, 1
	case nonbasicUpper:
		return d, -1
	default: // nonbasicFree
		if d < 0 {
			return -d, 1
		}
		return d, -1
	}
}

// price selects the entering column, returning (-1, 0) at optimality. With
// partial pricing it scans a rotating window of SectionSize columns and
// returns the best eligible column of the first non-empty window; Bland's
// rule and small problems use a full sweep.
func (s *simplex) price(phase1 bool) (entering int, dir float64) {
	tol := s.opts.Tol
	if s.bland {
		for j := 0; j < s.n; j++ {
			if sc, dj := s.score(j, phase1); sc > tol {
				s.stats.PricingScans += int64(j + 1)
				return j, dj
			}
		}
		s.stats.PricingScans += int64(s.n)
		return -1, 0
	}
	if s.devex {
		return s.devexPrice(phase1)
	}
	section := s.opts.SectionSize
	if section < 0 {
		section = s.n
	}
	bestJ, bestScore, bestDir := -1, tol, 0.0
	scanned := 0
	j := s.priceStart % s.n
	for scanned < s.n {
		if sc, dj := s.score(j, phase1); sc > bestScore {
			bestJ, bestScore, bestDir = j, sc, dj
		}
		scanned++
		j++
		if j == s.n {
			j = 0
		}
		if scanned%section == 0 && bestJ >= 0 {
			break
		}
	}
	if bestJ >= 0 {
		s.priceStart = j
	}
	s.stats.PricingScans += int64(scanned)
	return bestJ, bestDir
}

// ratioEvent describes a blocking event of the ratio test.
type ratioEvent struct {
	t      float64
	pos    int     // basis position (-1 = entering variable's own bound)
	atHi   bool    // leaving variable leaves at its upper bound
	pivMag float64 // |w[pos]|, used for stability tie-breaking
}

// ratioTest scans the FTRAN image w, in ascending position order over its
// pattern, for the first blocking event when the entering variable q moves
// in direction dir.
func (s *simplex) ratioTest(q int, dir float64, phase1 bool) (ratioEvent, bool) {
	tol := s.opts.Tol
	piv := s.opts.PivTol
	best := ratioEvent{t: math.Inf(1), pos: -1}
	// Entering variable's own opposite bound (bound flip).
	if rng := s.p.hi[q] - s.p.lo[q]; !math.IsInf(rng, 1) {
		best = ratioEvent{t: rng, pos: -1}
	}
	for _, i32 := range s.wPat {
		i := int(i32)
		wi := s.w[i]
		if abs(wi) <= piv {
			continue
		}
		rate := -dir * wi // movement rate of basic i
		qi := s.basis[i]
		lo, hi := s.p.lo[qi], s.p.hi[qi]
		v := s.xB[i]
		var limit float64
		var atHi bool
		switch {
		case phase1 && v < lo-tol:
			// Infeasible below: blocks only when moving up to lo.
			if rate <= 0 {
				continue
			}
			limit, atHi = (lo-v)/rate, false
		case phase1 && v > hi+tol:
			if rate >= 0 {
				continue
			}
			limit, atHi = (hi-v)/rate, true
		case rate > 0:
			if math.IsInf(hi, 1) {
				continue
			}
			limit, atHi = (hi-v)/rate, true
		default: // rate < 0
			if math.IsInf(lo, -1) {
				continue
			}
			limit, atHi = (lo-v)/rate, false
		}
		if limit < 0 {
			limit = 0
		}
		if limit < best.t-tol ||
			(limit < best.t+tol && abs(wi) > best.pivMag) {
			best = ratioEvent{t: limit, pos: i, atHi: atHi, pivMag: abs(wi)}
		}
	}
	if math.IsInf(best.t, 1) {
		return best, false
	}
	return best, true
}

// loop runs simplex iterations for one phase.
func (s *simplex) loop(phase1 bool) error {
	// Each phase has its own cost vector, so the devex reduced-cost cache
	// never survives a phase boundary.
	s.dDirty = true
	for {
		if s.iter >= s.opts.MaxIter {
			return fmt.Errorf("%w after %d iterations", ErrIterLimit, s.iter)
		}
		if s.iter-s.lastCheck >= s.opts.CheckEvery {
			s.lastCheck = s.iter
			if err := s.checkInterrupt(); err != nil {
				return err
			}
		}
		if phase1 && s.infeasibility() <= s.opts.Tol {
			return nil
		}
		refreshed := false
		if s.devex {
			// The Bland fallback also prices through the cache (score());
			// refresh every iteration while it is active so anti-cycling
			// sees exact signs.
			if s.dDirty || s.bland || s.dAge >= devexRefreshEvery {
				s.refreshD(phase1)
				refreshed = true
			}
		} else {
			if phase1 {
				s.phase1Costs()
			} else {
				s.phase2Costs()
			}
			s.computeDuals()
		}
		q, dir := s.price(phase1)
		if q < 0 && s.devex && !refreshed {
			// Optimality must be certified against exact reduced costs, not
			// the incrementally drifted cache.
			s.refreshD(phase1)
			q, dir = s.price(phase1)
		}
		if q < 0 {
			if s.anyShun {
				// Every remaining attractive column is shunned: each one's
				// pivot led to a basis with no usable factorization, so the
				// solver cannot make progress or certify optimality.
				return fmt.Errorf("%w: only numerically unusable entering columns remain", ErrNumerical)
			}
			return nil // optimal for this phase
		}
		s.ftranColumn(q)

		ev, ok := s.ratioTest(q, dir, phase1)
		if !ok {
			if phase1 {
				if s.comp != 0 {
					// The composite cost term admits purely cost-driven
					// rays (e.g. an unbounded slack whose band effect is
					// zero); a pure phase 1 cannot. Drop the term and
					// continue restoring feasibility.
					s.comp = 0
					s.dDirty = true
					continue
				}
				return fmt.Errorf("%w: unbounded phase-1 direction", ErrNumerical)
			}
			return ErrUnbounded
		}
		s.iter++
		if ev.t <= s.opts.Tol {
			s.degenerate++
			s.stats.DegenerateSteps++
			if s.degenerate >= s.opts.BlandAfter {
				if !s.bland {
					s.stats.BlandActivations++
				}
				s.bland = true
			}
		} else {
			s.degenerate = 0
			s.bland = false
		}
		// Move the entering variable and update basics. In phase 1 the cost
		// of a basic column is its infeasibility band (-1/0/+1); a move that
		// carries a basic across a band boundary changes the cost vector.
		// Each crossing is collected as a (position, band delta) pair so the
		// reduced-cost cache can absorb the change exactly; cB is kept in
		// step with the current bands. The pivot position is excluded — the
		// leaving column's cost drop to 0 enters the cache through d[leave]
		// directly (leaveShift below), not through the duals.
		step := dir * ev.t
		trackFlips := phase1 && s.devex && !s.dDirty
		s.flipPos, s.flipDelta = s.flipPos[:0], s.flipDelta[:0]
		tol := s.opts.Tol
		for _, i32 := range s.wPat {
			i := int(i32)
			s.xB[i] -= step * s.w[i]
			s.x[s.basis[i]] = s.xB[i]
			if trackFlips && i != ev.pos {
				qi, v := s.basis[i], s.xB[i]
				band := 0.0
				switch {
				case v < s.p.lo[qi]-tol:
					band = -1
				case v > s.p.hi[qi]+tol:
					band = 1
				}
				if band != s.p1band[i] {
					s.flipPos = append(s.flipPos, i32)
					s.flipDelta = append(s.flipDelta, band-s.p1band[i])
					s.cB[i] += band - s.p1band[i]
					s.p1band[i] = band
				}
			}
		}
		if ev.pos < 0 {
			s.stats.BoundFlips++
			// Bound flip: the entering variable jumps to its other bound.
			if s.status[q] == nonbasicLower {
				s.status[q] = nonbasicUpper
				s.x[q] = s.p.hi[q]
			} else {
				s.status[q] = nonbasicLower
				s.x[q] = s.p.lo[q]
			}
			// No basis change, but the move may have flipped bands.
			if trackFlips && len(s.flipPos) > 0 {
				s.applyCostCorrection()
			}
			continue
		}
		// Pivot: q enters at basis position ev.pos; the old basic leaves.
		// The entering column's pre-pivot state is kept so a pivot whose
		// basis turns out to have no factorization can be undone.
		leave := s.basis[ev.pos]
		qStatus, qX := s.status[q], s.x[q]
		if ev.atHi {
			s.status[leave] = nonbasicUpper
			s.x[leave] = s.p.hi[leave]
		} else {
			s.status[leave] = nonbasicLower
			s.x[leave] = s.p.lo[leave]
		}
		s.x[q] += step
		s.xB[ev.pos] = s.x[q]
		s.basis[ev.pos] = q
		s.status[q] = basic
		// The pivot position swaps costs: the leaving column's band
		// (cB[ev.pos]) drops to 0 as it exits to a feasible bound — a direct
		// shift of d[leave], since leave is nonbasic now — and the entering
		// column picks up the band of its new value, a basic cost change
		// folded in through the dual correction like any other flip.
		var leaveShift float64
		if trackFlips {
			// Only the band part shifts d[leave] directly: the comp*obj
			// parts of the old and new pivot-position costs flow through
			// the standard reduced-cost update (they are ordinary column
			// costs, present in d_q), exactly as in phase 2.
			leaveShift = -s.p1band[ev.pos]
			v := s.xB[ev.pos]
			band := 0.0
			switch {
			case v < s.p.lo[q]-tol:
				band = -1
			case v > s.p.hi[q]+tol:
				band = 1
			}
			if band != 0 {
				s.flipPos = append(s.flipPos, int32(ev.pos))
				s.flipDelta = append(s.flipDelta, band)
			}
			s.p1band[ev.pos] = band
			s.cB[ev.pos] = band + s.comp*s.p.obj[q]
		}

		if s.devex {
			// Must run against the pre-pivot factorization: the weight
			// update needs the outgoing basis inverse's pivot row.
			s.devexUpdate(q, ev.pos, leave, leaveShift)
		}
		refactor, err := s.fac.Update(s.w, ev.pos)
		if err != nil {
			// A numerically unusable pivot is recoverable: refactorizing
			// from scratch absorbs the basis change exactly. Anything else
			// is a contract violation and must surface, not be papered
			// over by a refactorization.
			if !errors.Is(err, ErrNumerical) {
				return fmt.Errorf("lp: basis update at iteration %d: %w", s.iter, err)
			}
			refactor = true
		}
		if refactor {
			if err := s.fac.Factor(s.p.cols, s.basis); err != nil {
				if !errors.Is(err, ErrNumerical) {
					return err
				}
				// The pivoted basis has no usable factorization: the
				// entering column is numerically dependent on the rest of
				// the basis, and its acceptable ratio-test pivot existed
				// only through round-off. Undo the pivot, refactorize the
				// previous basis (known good) and shun the column until the
				// next successful pivot changes the basis. The devex
				// weights keep their post-pivot values; they are heuristic
				// and self-correct.
				s.basis[ev.pos] = leave
				s.status[leave] = basic
				s.status[q] = qStatus
				s.x[q] = qX
				if err := s.fac.Factor(s.p.cols, s.basis); err != nil {
					return fmt.Errorf("lp: refactorizing restored basis: %w", err)
				}
				s.stats.Refactorizations++
				s.stats.PivotRejections++
				s.recomputeXB()
				s.shunColumn(q)
				// devexUpdate already folded the undone pivot into the
				// reduced-cost cache; rebuild it.
				s.dDirty = true
				continue
			}
			s.stats.Refactorizations++
			s.recomputeXB()
			// recomputeXB can nudge basic values across phase-1 bands, and
			// the fresh factorization gives cheaper exact duals anyway.
			s.dDirty = true
		}
		// Fold this iteration's phase-1 cost flips into the cache. Runs
		// against the post-pivot factorization (Update absorbed the pivot);
		// a refactorization marks the cache dirty and skips this.
		if s.devex && !s.dDirty && len(s.flipPos) > 0 {
			s.applyCostCorrection()
		}
		if s.anyShun {
			// A pivot succeeded: the basis the shunned columns were
			// dependent on is gone, so they become candidates again.
			s.shunGen++
			s.anyShun = false
		}
	}
}

// shunColumn excludes column q from pricing until the next successful
// pivot (score reports it as unattractive).
func (s *simplex) shunColumn(q int) {
	if s.shunStamp == nil {
		s.shunStamp = make([]int32, s.n)
		s.shunGen = 1
	}
	s.shunStamp[q] = s.shunGen
	s.anyShun = true
}

func (s *simplex) buildSolution() *Solution {
	s.finalizeStats()
	sol := &Solution{
		X:          make([]float64, s.p.numStruct),
		Duals:      make([]float64, s.m),
		Iterations: s.iter,
		Stats:      s.stats,
		Basis:      s.snapshotBasis(),
	}
	obj := 0.0
	for j := 0; j < s.p.numStruct; j++ {
		sol.X[j] = s.x[j]
		obj += s.p.obj[j] * s.x[j]
	}
	if s.p.sense == Maximize {
		obj = -obj
	}
	sol.Objective = obj
	// Duals from the final basis: y = B^-T cB with phase-2 costs. Our slack
	// columns carry coefficient -1, so the conventional row dual is -y.
	s.phase2Costs()
	s.computeDuals()
	for i := 0; i < s.m; i++ {
		d := s.y[i]
		if s.p.sense == Maximize {
			d = -d
		}
		sol.Duals[i] = d
	}
	return sol
}
