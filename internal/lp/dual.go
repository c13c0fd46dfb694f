package lp

import (
	"errors"
	"fmt"
	"math"
)

// dualReoptimize is the warm-restart fast path: a dual simplex pass run
// before the primal phases when the solve was seeded from a prior basis.
//
// A carried basis that was optimal before the problem drifted is left in a
// characteristic state: the coefficient and objective edits broke primal
// feasibility of a few basic columns and dual feasibility of the edited
// nonbasic columns, but everything else still prices correctly. The primal
// route from here is expensive — a phase 1 walks the basics feasible while
// ignoring cost, then phase 2 re-walks the cost back. The dual route fixes
// the same state directly: run dual pivots — leaving variable chosen by
// primal bound violation, entering by the dual ratio test — which restore
// primal feasibility while keeping the basis (near-)dual feasible. The few
// dual-infeasible nonbasic columns left by the edits are not flipped to
// their other bound first: a flip drags the column across its whole range
// and manufactures fresh primal violations that each cost a pivot to undo.
// Instead the ratio test clamps their wrong-sign reduced costs toward zero,
// which makes them maximally attractive entering candidates, and entering
// the basis zeroes a column's reduced cost. When the pass converges the
// primal phases reduce to a certifying pricing sweep.
//
// The pass is an accelerator, not an oracle: it returns a non-nil error
// only for hard failures (interrupts, iteration limits, broken invariants).
// Whenever the dual route is not applicable — a dual-infeasible column
// without an opposite bound to flip to, no usable pivot, or the pivot
// budget runs out — it leaves the solver state consistent (statuses, xB
// and factorization all current) and returns nil, and the ordinary primal
// phases continue from wherever it stopped. Optimality is always certified
// by the primal machinery against fresh reduced costs, never assumed from
// the dual pass.
func (s *simplex) dualReoptimize() error {
	if !s.devex {
		return nil // the pass leans on the maintained reduced-cost cache
	}
	s.refreshD(false)
	tol := s.opts.Tol

	// Dual pivots until primal feasible (optimal) or the budget runs out.
	// The budget is a cycling guard, not a convergence bound: a healthy
	// re-solve needs about one pivot per infeasible basic.
	budget := 2*s.m + 100
	piv := s.opts.PivTol
	for it := 0; it < budget; it++ {
		if s.iter >= s.opts.MaxIter {
			return fmt.Errorf("%w after %d iterations", ErrIterLimit, s.iter)
		}
		if s.iter-s.lastCheck >= s.opts.CheckEvery {
			s.lastCheck = s.iter
			if err := s.checkInterrupt(); err != nil {
				return err
			}
		}
		if s.dDirty || s.dAge >= devexRefreshEvery {
			s.refreshD(false)
		}
		// Leaving row: the basic with the largest bound violation.
		r, worst, above := -1, tol, false
		for i, q := range s.basis {
			v := s.xB[i]
			if lo := s.p.lo[q]; v < lo-worst {
				r, worst, above = i, lo-v, false
			} else if hi := s.p.hi[q]; v > hi+worst {
				r, worst, above = i, v-hi, true
			}
		}
		if r < 0 {
			break // primal feasible and dual feasible: optimal
		}
		// Pivot row alpha = e_r^T B^-1 A, gathered sparsely over the CSR
		// copy exactly as the devex weight update does.
		pat := s.pivotRow(r)
		// Dual ratio test. sigma orients the pivot row so that an eligible
		// entering move pushes xB[r] toward its violated bound: a column at
		// its lower bound moves up and needs sigma*alpha > 0, one at its
		// upper bound moves down and needs sigma*alpha < 0. Among eligible
		// columns the smallest |d|/|alpha| keeps every nonbasic reduced
		// cost on its feasible side; ties break toward the largest pivot.
		sigma := -1.0
		if above {
			sigma = 1.0
		}
		q, bestT, bestMag := -1, math.Inf(1), 0.0
		for _, j32 := range pat {
			j := int(j32)
			st := s.status[j]
			if st == basic {
				continue
			}
			a := s.alpha[j]
			if abs(a) <= piv {
				continue
			}
			sa := sigma * a
			d := s.d[j]
			var t float64
			switch st {
			case nonbasicLower:
				if sa <= piv {
					continue
				}
				if d < 0 {
					d = 0
				}
				t = d / sa
			case nonbasicUpper:
				if sa >= -piv {
					continue
				}
				if d > 0 {
					d = 0
				}
				t = d / sa // both negative: t >= 0
			default: // nonbasicFree
				t = abs(d) / abs(sa)
			}
			if t < bestT-tol || (t < bestT+tol && abs(a) > bestMag) {
				q, bestT, bestMag = j, t, abs(a)
			}
		}
		if q < 0 {
			// No entering column can fix row r: the problem looks primal
			// infeasible, but that verdict belongs to the primal phase-1
			// machinery and its scaled tolerances, not to this fast path.
			return nil
		}
		// FTRAN the entering column; its image at r is the pivot element.
		s.ftranColumn(q)
		aq := s.w[r]
		if abs(aq) <= piv {
			return nil // numerically degraded pivot: leave it to the primal path
		}
		target := s.p.lo[s.basis[r]]
		if above {
			target = s.p.hi[s.basis[r]]
		}
		step := (s.xB[r] - target) / aq
		rate := s.d[q] / aq

		s.iter++
		s.stats.DualIterations++
		if abs(step) <= tol {
			s.stats.DegenerateSteps++
		}
		// Primal update: basics move against the entering column's image;
		// the entering variable absorbs the step (it may overshoot its own
		// far bound — then it simply becomes the next leaving candidate).
		for _, i := range s.wPat {
			s.xB[i] -= step * s.w[i]
			s.x[s.basis[i]] = s.xB[i]
		}
		leave := s.basis[r]
		leaveStatus, leaveX := s.status[q], s.x[q]
		if above {
			s.status[leave] = nonbasicUpper
			s.x[leave] = s.p.hi[leave]
		} else {
			s.status[leave] = nonbasicLower
			s.x[leave] = s.p.lo[leave]
		}
		s.x[q] += step
		s.xB[r] = s.x[q]
		s.basis[r] = q
		s.status[q] = basic
		// Reduced-cost cache update: identical algebra to a primal pivot
		// (the duals move by rate times the pivot row of B^-1).
		if !s.dDirty {
			for _, j32 := range pat {
				j := int(j32)
				if j == q || s.status[j] == basic {
					continue
				}
				if a := s.alpha[j]; a != 0 {
					s.d[j] -= rate * a
				}
			}
			s.d[leave] = -rate
			s.d[q] = 0
			s.dAge++
		}
		refactor, err := s.fac.Update(s.w, r)
		if err != nil {
			if !errors.Is(err, ErrNumerical) {
				return fmt.Errorf("lp: dual basis update at iteration %d: %w", s.iter, err)
			}
			refactor = true
		}
		if refactor {
			if err := s.fac.Factor(s.p.cols, s.basis); err != nil {
				if !errors.Is(err, ErrNumerical) {
					return err
				}
				// The pivoted basis has no usable factorization. Undo the
				// pivot, restore the previous (factorable) basis and hand
				// the solve to the primal path, whose shunning machinery
				// knows how to route around the column.
				s.basis[r] = leave
				s.status[leave] = basic
				s.status[q] = leaveStatus
				s.x[q] = leaveX
				if err := s.fac.Factor(s.p.cols, s.basis); err != nil {
					return fmt.Errorf("lp: refactorizing restored basis: %w", err)
				}
				s.stats.Refactorizations++
				s.stats.PivotRejections++
				s.recomputeXB()
				s.dDirty = true
				return nil
			}
			s.stats.Refactorizations++
			s.recomputeXB()
			s.dDirty = true
		}
	}
	if s.stats.DualIterations > 0 {
		// The devex reference framework tracked the pre-drift basis; the
		// pivots above moved past it without maintaining weights.
		s.resetDevex()
		s.dDirty = true
	}
	return nil
}
