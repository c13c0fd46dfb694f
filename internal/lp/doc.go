// Package lp implements linear programming for the MC-PERF bound pipeline.
//
// The package is a from-scratch substitute for the commercial LP solver
// (CPLEX) used in the paper. What runs by default:
//
//   - A Model builder API for assembling LPs with bounded variables and
//     range constraints (lo <= a*x <= hi); a compiled Problem's row
//     bounds and coefficients can be rewritten in place between solves.
//   - A presolve/postsolve layer that reduces each problem to a fixpoint
//     of exact reductions (fixed and free-singleton columns; empty,
//     singleton, redundant and forcing rows) and maps the solution, duals
//     and an optimal basis back to the original problem.
//   - A bounded-variable primal revised simplex with a two-phase start,
//     devex pricing, bound flips and a Bland anti-cycling fallback.
//   - A sparse LU basis factorization (left-looking Gilbert-Peierls with
//     partial pivoting) updated in place by Forrest-Tomlin updates between
//     periodic refactorizations. Its FTRAN and BTRAN are hyper-sparse:
//     they take the input's nonzero list, touch only the entries the
//     solve reaches while those stay under one density gate, and return
//     the result's ascending nonzero pattern, over which the simplex runs
//     its ratio test, basic-value update and pivot-row gather. Both
//     branches of the gate compute the same bits. Bases of at most 25
//     rows (the DenseLimit default) use a dense LU with product-form eta
//     updates instead; the MC-PERF bases of real sweeps are all larger.
//   - Warm starts from a prior basis, with a dual re-optimize pass that
//     restores primal feasibility after the problem drifted before the
//     primal phases certify optimality.
//
// The alternatives — Dantzig partial pricing, a forced dense or sparse
// backend, presolve off — are reachable only through Options, where the
// differential tests use them as reference paths. The one command-line
// exception is cmd/controller's -presolve, kept for its recorded benchmark.
//
// All MC-PERF matrices have entries in {-1, 0, +1} plus small integer
// demand weights, so the numerics are benign; tolerances are nevertheless
// configurable through Options.
package lp
