package lp

import "fmt"

// Factorizer abstracts a factorization of the simplex basis matrix B. The
// simplex core uses it through FTRAN (solve B*x = b) and BTRAN (solve
// B^T*y = c), plus an incremental Update when one basis column is replaced.
//
// Both solves share one sparse contract: the caller passes the input's
// nonzero index list, and the solve hands back the ascending indices where
// the result is nonzero. The result vector is exactly zero everywhere
// else, so a caller can clear it (and scan it) over that list instead of
// over all m entries. Dense right-hand sides go through the same contract
// with every nonzero listed (see nonzeros).
//
// Implementations absorb the Update either as a product-form eta
// (DenseFactor) or as a Forrest-Tomlin modification of the stored factors
// (SparseFactor), and signal via the returned bool when a full
// refactorization is advisable.
type Factorizer interface {
	// Factor (re)factorizes the basis given by the m column indices in
	// basis, drawing columns from the problem matrix a.
	Factor(a *CSC, basis []int) error
	// Ftran solves B*x = b in place. b is indexed by constraint row and
	// nz lists each row where b may be nonzero, once, in any order; b
	// must be zero off nz. On return b holds x, indexed by basis
	// position, and the ascending positions where x is nonzero are
	// appended to out[:0] and returned; out may share nz's storage.
	Ftran(b []float64, nz, out []int32) []int32
	// Btran solves B^T*y = c in place: c is indexed by basis position, y
	// by constraint row, and nz and out work as in Ftran.
	Btran(c []float64, nz, out []int32) []int32
	// Update replaces basis position pos with a column whose FTRAN image
	// (B^-1 * a_q) is w — the w most recently produced by Ftran, which
	// lets implementations reuse that solve's sparsity pattern instead of
	// rescanning all of w. It returns refactor=true when the update
	// machinery has grown enough that a fresh Factor call is recommended,
	// and an error when the pivot element is numerically unusable. After a
	// non-nil error the stored factorization may be invalid (a
	// Forrest-Tomlin update fails halfway through); the caller must Factor
	// before the next solve.
	Update(w []float64, pos int) (refactor bool, err error)
}

// nonzeros appends the indices of v's nonzero entries to pat[:0]: the
// nz list of a dense right-hand side.
func nonzeros(v []float64, pat []int32) []int32 {
	pat = pat[:0]
	for i, x := range v {
		if x != 0 {
			pat = append(pat, int32(i))
		}
	}
	return pat
}

// repairingFactorizer is the optional fast path for warm starts whose
// carried basis factorizes singular: one factorization pass that patches
// every column-versus-slack dependency as elimination reaches it, instead
// of failing so the caller can swap and retry. basis is mutated in place
// and each swap is reported so the caller can rebook the displaced column
// at a bound. Backends without it fall back to the retry loop, which pays
// a partial refactorization per repair.
type repairingFactorizer interface {
	FactorRepair(a *CSC, basis []int) ([]basisSwap, error)
}

// basisSwap records one in-factorization repair: the column old left basis
// position pos and a slack took its place (readable from basis[pos] after
// the call).
type basisSwap struct {
	pos int
	old int
}

// singularBasisError is how a Factor call reports a linearly dependent
// basis with enough detail to repair it: the basic column at position pos
// could not be pivoted, and row is a constraint row no basic column had
// pivoted when the elimination stalled. Swapping the slack of row into
// position pos removes one dependency; the warm-start path retries the
// factorization after each such patch instead of discarding the basis for
// a cold crash start. It unwraps to ErrNumerical so existing callers that
// only classify the failure keep working.
type singularBasisError struct {
	pos int
	row int
}

func (e *singularBasisError) Error() string {
	return fmt.Sprintf("%v: singular basis: column at position %d is dependent (row %d unpivoted)", ErrNumerical, e.pos, e.row)
}

func (e *singularBasisError) Unwrap() error { return ErrNumerical }

// FactorBackend selects the basis factorization backend by value, so a
// single Options struct can be shared across concurrent solves (unlike
// Options.Factorizer, which injects one stateful instance).
type FactorBackend int

// Available factorization backends. The zero value resolves to the
// size-based automatic choice so a zero Options struct keeps the
// recommended configuration.
const (
	// FactorAuto picks DenseFactor for bases up to Options.DenseLimit rows
	// and SparseFactor beyond.
	FactorAuto FactorBackend = iota
	// FactorDense forces the dense LU with product-form eta updates.
	FactorDense
	// FactorSparse forces the sparse LU with Forrest-Tomlin updates.
	FactorSparse
)

// String names the backend as it appears in reports.
func (b FactorBackend) String() string {
	switch b {
	case FactorDense:
		return "dense"
	case FactorSparse:
		return "sparse"
	default:
		return "auto"
	}
}

// eta is one product-form update: B_new^-1 = E * B_old^-1 where E differs
// from the identity only in column pos.
type eta struct {
	pos  int
	idx  []int // nonzero positions (excluding pos handled via pivot)
	val  []float64
	pivv float64 // value at position pos of the eta column (the pivot)
}

// etaFile is a sequence of product-form updates used by the dense
// factorization backend.
type etaFile struct {
	etas []eta
}

func (f *etaFile) reset() { f.etas = f.etas[:0] }

func (f *etaFile) len() int { return len(f.etas) }

// push records an update from the FTRAN image w of the entering column at
// basis position pos. It returns an error if the pivot is too small.
func (f *etaFile) push(w []float64, pos int, pivTol float64) error {
	piv := w[pos]
	if abs(piv) < pivTol {
		return ErrNumerical
	}
	e := eta{pos: pos, pivv: piv}
	for i, v := range w {
		if i != pos && abs(v) > factorDropTol {
			e.idx = append(e.idx, i)
			e.val = append(e.val, v)
		}
	}
	f.etas = append(f.etas, e)
	return nil
}

// ftranApply applies the recorded updates to x after the base LU solve:
// for each eta in order: x[pos] /= piv; x[i] -= w_i * x[pos].
func (f *etaFile) ftranApply(x []float64) {
	for k := range f.etas {
		e := &f.etas[k]
		xp := x[e.pos] / e.pivv
		x[e.pos] = xp
		if xp != 0 {
			for t, i := range e.idx {
				x[i] -= e.val[t] * xp
			}
		}
	}
}

// btranApply applies the transposed updates in reverse order before the base
// LU transpose solve: y[pos] = (y[pos] - sum w_i*y_i) / piv.
func (f *etaFile) btranApply(y []float64) {
	for k := len(f.etas) - 1; k >= 0; k-- {
		e := &f.etas[k]
		s := y[e.pos]
		for t, i := range e.idx {
			s -= e.val[t] * y[i]
		}
		y[e.pos] = s / e.pivv
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
