package lp

import mbits "math/bits"

// SparseFactor is the sparse-LU basis factorization backend with
// Forrest-Tomlin basis updates. It is the default for bases beyond
// Options.DenseLimit rows.
//
// A pivot does not append a product-form eta over the whole basis inverse
// (the old scheme, whose etas carry the dense FTRAN image of the entering
// column and make every later solve slower). Instead the stored U factor is
// modified in place: the leaving column of U is replaced by the partial
// FTRAN image of the entering column, the replaced position is rotated to
// the end of U's logical column order, and the row spike this leaves behind
// is eliminated by one short row eta. Solves stay as sparse as the
// factorization itself, so the update budget (sparseMaxEtas) can run far
// longer than a product-form eta file before a refactorization pays off.
type SparseFactor struct {
	lu *sparseLU // L (static between refactorizations) and the permutations
	u  ftU       // editable U with the Forrest-Tomlin machinery

	m int

	// Solve state shared by Ftran and Btran (one solve runs at a time).
	// tmp is the factor-coordinate work vector, all-zero between solves.
	// pat collects the solve's touched entries, stamped in u.sflag under
	// one u.smark per solve; u.bits orders them.
	tmp []float64
	pat []int32
	// prow inverts lu.pinv (factor row k holds original row prow[k]), and
	// lrow[lrowPtr[k]:lrowPtr[k+1]] lists the columns j < k with
	// L[k][j] != 0: the edges along which Btran's L^T solve spreads.
	// Rebuilt at each refactorization into the same buffers.
	prow    []int32
	lrowPtr []int32
	lrow    []int32

	maxEtas int
	pivTol  float64

	// Record of the most recent Ftran result in factor coordinates.
	// Update consumes it to read the entering column's image sparsely
	// instead of scanning all m entries of w; see Ftran and gatherImage.
	lastPat []int32
	lastVal []float64
	lastOK  bool
}

var _ Factorizer = (*SparseFactor)(nil)

// NewSparseFactor returns a sparse factorization backend. maxEtas bounds the
// number of Forrest-Tomlin updates absorbed before a refactorization is
// requested (0 means the shared default, sparseMaxEtas).
func NewSparseFactor(maxEtas int) *SparseFactor {
	if maxEtas <= 0 {
		maxEtas = sparseMaxEtas
	}
	return &SparseFactor{maxEtas: maxEtas, pivTol: factorPivTol}
}

// Factor implements Factorizer.
func (s *SparseFactor) Factor(a *CSC, basis []int) error {
	lu, _, err := luFactor(a, basis, s.pivTol, false)
	if err != nil {
		return err
	}
	s.install(lu, len(basis))
	return nil
}

// FactorRepair implements repairingFactorizer: one factorization pass that
// swaps a nonbasic slack into each dependent basis position as elimination
// reaches it, instead of failing so the caller can retry. basis is patched
// in place and the swaps are reported so the caller can rebook the
// displaced columns.
func (s *SparseFactor) FactorRepair(a *CSC, basis []int) ([]basisSwap, error) {
	lu, swaps, err := luFactor(a, basis, s.pivTol, true)
	if err != nil {
		return swaps, err
	}
	s.install(lu, len(basis))
	return swaps, nil
}

func (s *SparseFactor) install(lu *sparseLU, m int) {
	s.lu = lu
	s.m = m
	if cap(s.lrowPtr) < m+1 {
		s.tmp = make([]float64, m)
		s.pat = make([]int32, 0, m)
		s.prow = make([]int32, m)
		s.lrowPtr = make([]int32, m+1)
	}
	s.prow = s.prow[:m]
	for i, k := range lu.pinv {
		s.prow[k] = int32(i)
	}
	// L row lists by counting sort over L's strictly-lower entries (each
	// column's first entry is its unit diagonal).
	ptr := s.lrowPtr[:m+1]
	for k := range ptr {
		ptr[k] = 0
	}
	for j := 0; j < m; j++ {
		for p := lu.lp[j] + 1; p < lu.lp[j+1]; p++ {
			ptr[lu.li[p]+1]++
		}
	}
	for k := 0; k < m; k++ {
		ptr[k+1] += ptr[k]
	}
	if n := int(ptr[m]); cap(s.lrow) < n {
		s.lrow = make([]int32, n)
	} else {
		s.lrow = s.lrow[:n]
	}
	for j := 0; j < m; j++ {
		for p := lu.lp[j] + 1; p < lu.lp[j+1]; p++ {
			r := lu.li[p]
			s.lrow[ptr[r]] = int32(j)
			ptr[r]++
		}
	}
	for k := m; k > 0; k-- {
		ptr[k] = ptr[k-1]
	}
	ptr[0] = 0
	s.u.init(lu)
	s.lastOK = false
}

// sparseSolve reports whether a solve whose touched set has n entries
// stays on the hyper-sparse path: the single density gate of both solves.
func (s *SparseFactor) sparseSolve(n int) bool { return n*utsolveSparseRatio <= s.m }

// Ftran implements Factorizer: x = B^-1 b in place. The solve runs in
// factor coordinates — permute, L solve, Forrest-Tomlin row etas, ordered
// U solve, permute back — and records the result's nonzero pattern (in
// factor coordinates) for the Update that may follow.
//
// While the touched set stays under the density gate every stage visits
// touched entries only; once it crosses the gate the remaining stages
// walk all m entries and the pattern comes from a final scan. Both
// branches of every stage perform the same floating-point operations in
// the same order (the L and U solves push in pivot and logical order, the
// etas replay in recording order), so the gate changes speed, never bits.
func (s *SparseFactor) Ftran(b []float64, nz, out []int32) []int32 {
	lu, u, m := s.lu, &s.u, s.m
	x := s.tmp[:m]
	u.smark++
	mark := u.smark
	pat := s.pat[:0]
	for _, i := range nz {
		v := b[i]
		if v == 0 {
			continue
		}
		b[i] = 0
		k := int32(lu.pinv[i])
		x[k] = v
		u.sflag[k] = mark
		pat = append(pat, k)
	}
	sparse := s.sparseSolve(len(pat))
	if sparse {
		pat = s.lsolveSparse(x, pat)
		sparse = s.sparseSolve(len(pat))
	} else {
		lu.lsolve(x)
	}
	pat = u.applyEtasFtran(x, pat)
	sparse = sparse && s.sparseSolve(len(pat))
	if sparse {
		pat = u.usolveSparse(x, pat)
	} else {
		u.usolveDense(x)
	}

	lastPat, lastVal := s.lastPat[:0], s.lastVal[:0]
	out = out[:0]
	if sparse {
		u.bits.sort(pat)
		for _, k := range pat {
			v := x[k]
			x[k] = 0
			if v == 0 {
				continue
			}
			b[lu.q[k]] = v
			lastPat = append(lastPat, k)
			lastVal = append(lastVal, v)
			out = append(out, int32(lu.q[k]))
		}
	} else {
		for k := 0; k < m; k++ {
			v := x[k]
			x[k] = 0
			b[lu.q[k]] = v
			if v != 0 {
				lastPat = append(lastPat, int32(k))
				lastVal = append(lastVal, v)
				out = append(out, int32(lu.q[k]))
			}
		}
	}
	u.bits.sort(out)
	s.pat = pat
	s.lastPat, s.lastVal = lastPat, lastVal
	s.lastOK = true
	return out
}

// Btran implements Factorizer: y = B^-T c in place, through U^T, the
// transposed row etas and L^T. The density gate is decided on the input:
// the hyper-sparse U^T solve pushes along U's row lists while the dense
// one pulls along its columns, and the two sum in different orders, so
// the branch taken must depend on the input's nonzero count alone. Later
// stages are order-exact on both branches, as in Ftran.
func (s *SparseFactor) Btran(c []float64, nz, out []int32) []int32 {
	lu, u, m := s.lu, &s.u, s.m
	x := s.tmp[:m]
	u.smark++
	mark := u.smark
	pat := s.pat[:0]
	for _, i := range nz {
		v := c[i]
		if v == 0 {
			continue
		}
		c[i] = 0
		k := int32(lu.qinv[i])
		x[k] = v
		u.sflag[k] = mark
		pat = append(pat, k)
	}
	sparse := s.sparseSolve(len(pat))
	if sparse {
		pat = u.utsolveSparse(x, pat)
	} else {
		u.utsolveDense(x, pat)
	}
	pat = u.applyEtasBtran(x, pat)
	sparse = sparse && s.sparseSolve(len(pat))
	out = out[:0]
	if sparse {
		pat = s.ltsolveSparse(x, pat)
		for _, k := range pat {
			v := x[k]
			x[k] = 0
			if v == 0 {
				continue
			}
			i := s.prow[k]
			c[i] = v
			out = append(out, i)
		}
		u.bits.sort(out)
	} else {
		lu.ltsolve(x)
		for i := 0; i < m; i++ {
			k := lu.pinv[i]
			v := x[k]
			x[k] = 0
			c[i] = v
			if v != 0 {
				out = append(out, int32(i))
			}
		}
	}
	s.pat = pat
	return out
}

// lsolveSparse is the hyper-sparse L solve: entries are popped in
// ascending pivot order off the ordering bitmap and pushed down their L
// column, so every entry receives its contributions in the order the
// dense column walk (sparseLU.lsolve) applies them. L is lower
// triangular, so a pushed entry always lies ahead of the scan.
func (s *SparseFactor) lsolveSparse(x []float64, pat []int32) []int32 {
	lu, u, bits := s.lu, &s.u, s.u.bits
	mark := u.smark
	end := (s.m + 63) / 64
	lo := end
	for _, k := range pat {
		bits.set(k)
		lo = min(lo, int(k>>6))
	}
	for w := lo; w < end; w++ {
		for bits[w] != 0 {
			t := mbits.TrailingZeros64(bits[w])
			bits[w] &^= 1 << t
			j := w<<6 | t
			xj := x[j]
			if xj == 0 {
				continue
			}
			for p := lu.lp[j] + 1; p < lu.lp[j+1]; p++ {
				r := lu.li[p]
				if u.sflag[r] != mark {
					u.sflag[r] = mark
					pat = append(pat, int32(r))
					bits.set(int32(r))
				}
				x[r] -= lu.lx[p] * xj
			}
		}
	}
	return pat
}

// ltsolveSparse is the hyper-sparse L^T solve. L^T x = x is solved by
// pulls, x[j] -= L[:,j] . x, each over the full stored column exactly as
// sparseLU.ltsolve does; an entry can only turn nonzero through a row of
// L holding it, so the pulls run over the set reachable from the input
// along the L row lists, popped in descending order off the ordering
// bitmap so that every entry a pull reads is already final.
func (s *SparseFactor) ltsolveSparse(x []float64, pat []int32) []int32 {
	lu, u, bits := s.lu, &s.u, s.u.bits
	mark := u.smark
	hi := -1
	for _, k := range pat {
		bits.set(k)
		hi = max(hi, int(k>>6))
	}
	for w := hi; w >= 0; w-- {
		for bits[w] != 0 {
			t := 63 - mbits.LeadingZeros64(bits[w])
			bits[w] &^= 1 << t
			j := w<<6 | t
			v := x[j]
			for p := lu.lp[j] + 1; p < lu.lp[j+1]; p++ {
				v -= lu.lx[p] * x[lu.li[p]]
			}
			x[j] = v
			if v == 0 {
				continue
			}
			for _, c := range s.lrow[s.lrowPtr[j]:s.lrowPtr[j+1]] {
				if u.sflag[c] != mark {
					u.sflag[c] = mark
					pat = append(pat, c)
					bits.set(c)
				}
			}
		}
	}
	return pat
}

// bitset is the ordering bitmap of the hyper-sparse solves, all-zero
// between uses. Popping set bits in ascending or descending order stands
// in for a priority queue wherever a solve must visit entries in index or
// order-key order and every entry it adds lies ahead of the scan.
type bitset []uint64

func (b bitset) set(i int32) { b[i>>6] |= 1 << (uint32(i) & 63) }

// sort orders pat ascending in place (its entries must be distinct and
// below 64*len(b)): set one bit per entry, then read the words back in
// order, clearing them. O(len(pat) + span/64) — far cheaper than a
// comparison sort at the pattern sizes of a hyper-sparse solve.
func (b bitset) sort(pat []int32) {
	if len(pat) < 2 {
		return
	}
	lo, hi := len(b), 0
	for _, i := range pat {
		b.set(i)
		w := int(i >> 6)
		lo, hi = min(lo, w), max(hi, w)
	}
	n := 0
	for w := lo; w <= hi; w++ {
		word := b[w]
		if word == 0 {
			continue
		}
		b[w] = 0
		for word != 0 {
			pat[n] = int32(w<<6 | mbits.TrailingZeros64(word))
			n++
			word &= word - 1
		}
	}
}

// gatherImage returns the entering column's FTRAN image in factor
// coordinates as a sparse (pattern, values) pair. The fast path reuses the
// record of the most recent Ftran after verifying it against w (the
// simplex always calls Update with the image produced by its last Ftran);
// any mismatch falls back to a dense gather, so callers with a different
// call order lose speed, never correctness.
func (s *SparseFactor) gatherImage(w []float64, t int) ([]int32, []float64) {
	lu := s.lu
	if s.lastOK {
		ok, sawT := true, false
		for i, k := range s.lastPat {
			if w[lu.q[k]] != s.lastVal[i] {
				ok = false
				break
			}
			if int(k) == t {
				sawT = true
			}
		}
		if ok && (sawT || w[lu.q[t]] == 0) {
			return s.lastPat, s.lastVal
		}
	}
	pat, val := s.lastPat[:0], s.lastVal[:0]
	for k := 0; k < s.m; k++ {
		if v := w[lu.q[k]]; v != 0 {
			pat = append(pat, int32(k))
			val = append(val, v)
		}
	}
	s.lastPat, s.lastVal = pat, val
	return pat, val
}

// Update implements Factorizer with a Forrest-Tomlin update. On an
// ErrNumerical return the stored factorization is invalid (the update is
// applied halfway) and the caller must Factor before the next solve — the
// simplex refactorizes on every Update error, so this costs nothing extra.
func (s *SparseFactor) Update(w []float64, pos int) (bool, error) {
	// Pivot acceptance: the same test and constant as the dense backend.
	if abs(w[pos]) < s.pivTol {
		return true, ErrNumerical
	}
	t := s.lu.qinv[pos]
	pat, val := s.gatherImage(w, t)
	s.lastOK = false // consumed
	if err := s.u.update(t, pat, val, w[pos], s.pivTol); err != nil {
		return true, err
	}
	return s.u.updates >= s.maxEtas || s.u.nnz > sparseFillLimit*s.u.nnz0, nil
}

// ftColumn holds one U column's off-diagonal entries; rows are factor
// coordinates. The diagonal lives in ftU.diag. gen counts the times the
// column has been replaced since the last refactorization: row-list
// entries stamped with an older gen are stale (see ftRowEntry).
type ftColumn struct {
	ri  []int32
	rv  []float64
	gen int32
}

// ftRowEntry is one row list element: column col holds value val in this
// row — valid only while gen matches cols[col].gen. Entry values are
// immutable between installs (updates only ever delete entries or replace
// whole columns, never rewrite one in place), so a matching gen means both
// the membership and the value are current, and consumers need no search
// through the column's storage.
type ftRowEntry struct {
	col, gen int32
	val      float64
}

// ftEta is one Forrest-Tomlin row eta R = I - e_t z^T: the multipliers z
// that eliminated the row spike left behind when column t rotated to the
// end of the order.
type ftEta struct {
	t   int
	idx []int32
	val []float64
}

// ftU is an upper-triangular factor that supports Forrest-Tomlin column
// replacement. Triangularity is logical, through a column order: the
// column at order position p has off-diagonal entries only in rows whose
// columns sit at earlier positions. A fresh factorization starts with the
// identity order; each update rotates the replaced column to the end.
type ftU struct {
	m    int
	cols []ftColumn
	diag []float64

	// Logical column order as a doubly-linked list (onext/oprev, -1
	// terminated) plus a monotonically increasing key per column (okey):
	// key comparison is order comparison. A fresh factorization starts
	// with the identity order and keys 0..m-1; an update splices the
	// replaced column to the tail in O(1) and stamps it with a fresh
	// maximal key, instead of memmoving a positional array and rewriting
	// every trailing position's index.
	onext   []int32
	oprev   []int32
	okey    []int32
	ohead   int32
	otail   int32
	nextKey int32
	// keyCol inverts okey: keyCol[okey[j]] = j for every current key
	// (entries of keys retired by an update go stale). It lets the
	// hyper-sparse U solves pop columns in order-key order off a bitmap.
	keyCol []int32

	// rows[r] lists the columns that may hold an off-diagonal entry in row
	// r: a superset maintained by appending on install and never compacted
	// mid-cycle. Stale entries (their column was since replaced) are
	// recognized in O(1) by their gen stamp; at most one entry per column
	// is ever valid. Refactorization rebuilds the lists exactly.
	rows [][]ftRowEntry

	etas    []ftEta
	updates int
	nnz     int // current off-diagonal entry count
	nnz0    int // off-diagonal entry count at the last refactorization

	// scratch (all length m, stamped)
	acc   []float64 // utilde accumulator
	aflag []int32
	amark int32
	upat  []int32
	zacc  []float64 // spike / multiplier accumulator
	zflag []int32
	zmark int32
	zpat  []int32
	zval  []float64
	hcol  []int32 // heap of pending spike columns, keyed by okey
	// Scratch of the hyper-sparse solves, shared by all their stages: the
	// touched-entry stamp and the ordering bitmap, all-zero between
	// solves, covering both factor coordinates and order keys.
	sflag []int32
	smark int32
	bits  bitset
}

// utsolveSparseRatio is the density gate of both solves: while at most
// m/utsolveSparseRatio entries are touched, a solve runs over those
// entries only (see sparseSolve) instead of walking all m.
const utsolveSparseRatio = 16

// init converts the packed U of a fresh factorization (column k stores its
// rows ascending with the diagonal last) into editable per-column form and
// resets all update state.
func (u *ftU) init(lu *sparseLU) {
	m := lu.m
	// All the fixed-size arrays are allocated together, so len(acc) is the
	// allocated capacity for every one of them.
	if m > len(u.acc) {
		u.cols = make([]ftColumn, m)
		u.diag = make([]float64, m)
		u.onext = make([]int32, m)
		u.oprev = make([]int32, m)
		u.okey = make([]int32, m)
		u.rows = make([][]ftRowEntry, m)
		u.acc = make([]float64, m)
		u.aflag = make([]int32, m)
		u.upat = make([]int32, 0, m)
		u.zacc = make([]float64, m)
		u.zflag = make([]int32, m)
		u.zpat = make([]int32, 0, m)
		u.zval = make([]float64, 0, m)
		u.hcol = make([]int32, 0, m)
		u.sflag = make([]int32, m)
	} else {
		u.cols = u.cols[:m]
		u.diag = u.diag[:m]
		u.onext = u.onext[:m]
		u.oprev = u.oprev[:m]
		u.okey = u.okey[:m]
		u.rows = u.rows[:m]
	}
	u.m = m
	u.nnz = 0
	for k := 0; k < m; k++ {
		s, e := lu.up[k], lu.up[k+1]
		u.diag[k] = lu.ux[e-1]
		n := e - 1 - s
		c := &u.cols[k]
		// ri and rv can end up with different capacities after update-time
		// appends (different size classes), so check both.
		if cap(c.ri) < n || cap(c.rv) < n {
			c.ri = make([]int32, n)
			c.rv = make([]float64, n)
		} else {
			c.ri = c.ri[:n]
			c.rv = c.rv[:n]
		}
		for i := 0; i < n; i++ {
			c.ri[i] = int32(lu.ui[s+i])
			c.rv[i] = lu.ux[s+i]
		}
		c.gen = 0
		u.nnz += n
		u.onext[k] = int32(k + 1)
		u.oprev[k] = int32(k - 1)
		u.okey[k] = int32(k)
		u.rows[k] = u.rows[k][:0]
	}
	u.ohead, u.otail, u.nextKey = 0, int32(m-1), int32(m)
	u.keyCol = u.keyCol[:0]
	for k := 0; k < m; k++ {
		u.keyCol = append(u.keyCol, int32(k))
	}
	if n := (m + 63) / 64; len(u.bits) < n {
		u.bits = make(bitset, n)
	}
	if m > 0 {
		u.onext[m-1] = -1
	} else {
		u.ohead = -1
	}
	u.nnz0 = u.nnz
	for k := 0; k < m; k++ {
		c := &u.cols[k]
		for e, r := range c.ri {
			u.rows[r] = append(u.rows[r], ftRowEntry{col: int32(k), val: c.rv[e]})
		}
	}
	u.etas = u.etas[:0]
	u.updates = 0
	for i := 0; i < m; i++ {
		u.aflag[i], u.zflag[i], u.sflag[i] = 0, 0, 0
	}
	u.amark, u.zmark, u.smark = 0, 0, 0
}

// usolveDense solves U*x = x in place by walking the logical column order
// backwards. The solve is push-form: only nonzero entries propagate.
func (u *ftU) usolveDense(x []float64) {
	for j := u.otail; j >= 0; j = u.oprev[j] {
		xj := x[j] / u.diag[j]
		x[j] = xj
		if xj == 0 {
			continue
		}
		c := &u.cols[j]
		for e, r := range c.ri {
			x[r] -= c.rv[e] * xj
		}
	}
}

// usolveSparse is the hyper-sparse U solve: the touched entries pat
// (stamped under u.smark) pop off the ordering bitmap in descending order
// key, each pushing into its column's rows — entries whose keys are
// smaller, still ahead of the scan. Every entry receives its
// contributions in the same descending order the list walk of usolveDense
// produces, so the two are bit-identical. Entries reached for the first
// time join pat, which is returned.
func (u *ftU) usolveSparse(x []float64, pat []int32) []int32 {
	bits := u.bits
	hi := -1
	for _, j := range pat {
		k := u.okey[j]
		bits.set(k)
		hi = max(hi, int(k>>6))
	}
	for w := hi; w >= 0; w-- {
		for bits[w] != 0 {
			t := 63 - mbits.LeadingZeros64(bits[w])
			bits[w] &^= 1 << t
			j := u.keyCol[w<<6|t]
			xj := x[j] / u.diag[j]
			x[j] = xj
			if xj == 0 {
				continue
			}
			c := &u.cols[j]
			for e, r := range c.ri {
				if u.sflag[r] != u.smark {
					u.sflag[r] = u.smark
					pat = append(pat, r)
					bits.set(u.okey[r])
				}
				x[r] -= c.rv[e] * xj
			}
		}
	}
	return pat
}

// utsolveDense solves U^T*x = x in place by pulls along the logical column
// order, starting at the earliest-ordered nonzero of pat (the input's
// nonzero entries): every solution entry before it is exactly 0 by
// triangularity.
func (u *ftU) utsolveDense(x []float64, pat []int32) {
	start := int32(-1)
	bestKey := int32(0)
	for _, j := range pat {
		if start < 0 || u.okey[j] < bestKey {
			start, bestKey = j, u.okey[j]
		}
	}
	for j := start; j >= 0; j = u.onext[j] {
		s := x[j]
		c := &u.cols[j]
		for e, r := range c.ri {
			s -= c.rv[e] * x[r]
		}
		x[j] = s / u.diag[j]
	}
}

// utsolveSparse is the hyper-sparse U^T solve for inputs under the
// density gate (the unit-vector BTRANs of the devex machinery, the band
// deltas of the phase-1 cost correction): the touched entries pat pop off
// the ordering bitmap in ascending order key, and each finalized entry is
// pushed forward into the columns that hold its row (the gen-validated
// row lists), whose keys are larger. Pops are monotone in the keys and
// every contribution flows strictly forward, so each entry is complete
// when it pops; columns never reached stay exactly 0 without being
// visited. The push sums in a different order than the pulls of
// utsolveDense, so callers must choose between the two by the input's
// nonzero count alone.
func (u *ftU) utsolveSparse(x []float64, pat []int32) []int32 {
	bits := u.bits
	lo := len(bits)
	for _, j := range pat {
		k := u.okey[j]
		bits.set(k)
		lo = min(lo, int(k>>6))
	}
	end := (int(u.nextKey) + 63) / 64
	for w := lo; w < end; w++ {
		for bits[w] != 0 {
			t := mbits.TrailingZeros64(bits[w])
			bits[w] &^= 1 << t
			j := int(u.keyCol[w<<6|t])
			xj := x[j] / u.diag[j]
			x[j] = xj
			if xj == 0 {
				continue
			}
			for _, en := range u.rows[j] {
				c := int(en.col)
				if en.gen != u.cols[c].gen {
					continue
				}
				if u.sflag[c] != u.smark {
					u.sflag[c] = u.smark
					pat = append(pat, en.col)
					bits.set(u.okey[c])
				}
				x[c] -= en.val * xj
			}
		}
	}
	return pat
}

// applyEtasFtran applies the row etas in recording order, x[t] -= z . x,
// adding each row t it changes to the touched set pat (stamped under
// u.smark).
func (u *ftU) applyEtasFtran(x []float64, pat []int32) []int32 {
	for k := range u.etas {
		e := &u.etas[k]
		s := 0.0
		for i, r := range e.idx {
			s += e.val[i] * x[r]
		}
		x[e.t] -= s
		if t := int32(e.t); s != 0 && u.sflag[t] != u.smark {
			u.sflag[t] = u.smark
			pat = append(pat, t)
		}
	}
	return pat
}

// applyEtasBtran applies the transposed row etas in reverse order,
// x[r] -= z_r * x[t] for every multiplier row r, adding each row it
// reaches to the touched set pat (stamped under u.smark).
func (u *ftU) applyEtasBtran(x []float64, pat []int32) []int32 {
	for k := len(u.etas) - 1; k >= 0; k-- {
		e := &u.etas[k]
		xt := x[e.t]
		if xt == 0 {
			continue
		}
		for i, r := range e.idx {
			if u.sflag[r] != u.smark {
				u.sflag[r] = u.smark
				pat = append(pat, r)
			}
			x[r] -= e.val[i] * xt
		}
	}
	return pat
}

// update absorbs one basis change: factor column t is replaced by the
// entering column whose partial FTRAN image is U * xhat (xhat given
// sparsely as pat/val). The steps are the classic Forrest-Tomlin sequence:
// compute utilde = U*xhat, extract and delete the row spike (row t's
// entries in columns ordered after t), eliminate it with multipliers from
// a sparse transposed solve, install utilde (with the eliminated diagonal)
// as the new column t, record the row eta, and rotate t to the end of the
// order.
//
// wpos is the entering column's FTRAN image at the replaced basis
// position. It gives an independent value for the new diagonal: the
// determinant ratio of a column replacement is wpos (Sherman-Morrison),
// and on the factor side every update step except the diagonal swap has
// determinant one, so the new diagonal must equal wpos times the old one,
// exactly. Disagreement beyond factorUpdateAccTol means cancellation made
// the elimination inaccurate; the update fails with ErrNumerical and the
// caller refactorizes instead of accumulating the error.
func (u *ftU) update(t int, pat []int32, val []float64, wpos, pivTol float64) error {
	dAlt := wpos * u.diag[t]

	// utilde = U * xhat, scattered into acc over pattern upat.
	u.amark++
	upat := u.upat[:0]
	scatter := func(r int32, v float64) {
		if u.aflag[r] != u.amark {
			u.aflag[r] = u.amark
			u.acc[r] = v
			upat = append(upat, r)
		} else {
			u.acc[r] += v
		}
	}
	for i, k := range pat {
		xk := val[i]
		scatter(k, u.diag[k]*xk)
		c := &u.cols[k]
		for e, r := range c.ri {
			scatter(r, c.rv[e]*xk)
		}
	}
	u.upat = upat

	// Row spike: row t's entries in later-ordered columns, found through
	// the rows list (verified, deduplicated) and deleted from storage.
	// Each spike column joins a min-heap on the order keys, so the
	// elimination below visits columns in logical order while touching
	// only the columns actually involved — never the trailing positions
	// wholesale.
	t32 := int32(t)
	hp := u.hcol[:0]
	push := func(c int32) {
		hp = append(hp, c)
		for i := len(hp) - 1; i > 0; {
			p := (i - 1) / 2
			if u.okey[hp[p]] <= u.okey[hp[i]] {
				break
			}
			hp[p], hp[i] = hp[i], hp[p]
			i = p
		}
	}
	u.zmark++
	for _, en := range u.rows[t] {
		c := int(en.col)
		if c == t || en.gen != u.cols[c].gen || u.zflag[c] == u.zmark {
			continue
		}
		col := &u.cols[c]
		for e, r := range col.ri {
			if r != t32 {
				continue
			}
			last := len(col.ri) - 1
			col.ri[e], col.rv[e] = col.ri[last], col.rv[last]
			col.ri, col.rv = col.ri[:last], col.rv[:last]
			u.nnz--
			u.zacc[c] = en.val
			u.zflag[c] = u.zmark
			push(en.col)
			break
		}
	}
	u.rows[t] = u.rows[t][:0]

	// Eliminate the spike: solve U22^T z = spike in logical column order,
	// pushing each multiplier into the later columns that hold its row
	// (fill joins the heap). Heap pops are monotone in the order keys and
	// every contribution flows strictly forward, so each column's
	// accumulator is complete when it pops — the same order the positional
	// scan used to visit.
	zpat, zval := u.zpat[:0], u.zval[:0]
	for len(hp) > 0 {
		j := int(hp[0])
		last := len(hp) - 1
		hp[0] = hp[last]
		hp = hp[:last]
		for i := 0; ; {
			l, r, min := 2*i+1, 2*i+2, i
			if l < len(hp) && u.okey[hp[l]] < u.okey[hp[min]] {
				min = l
			}
			if r < len(hp) && u.okey[hp[r]] < u.okey[hp[min]] {
				min = r
			}
			if min == i {
				break
			}
			hp[min], hp[i] = hp[i], hp[min]
			i = min
		}
		sum := u.zacc[j]
		if abs(sum) <= factorDropTol {
			continue
		}
		zj := sum / u.diag[j]
		zpat = append(zpat, int32(j))
		zval = append(zval, zj)
		kj := u.okey[j]
		for _, en := range u.rows[j] {
			c := int(en.col)
			if u.okey[c] <= kj || en.gen != u.cols[c].gen {
				continue
			}
			if u.zflag[c] != u.zmark {
				u.zflag[c] = u.zmark
				u.zacc[c] = 0
				push(en.col)
			}
			u.zacc[c] -= en.val * zj
		}
	}
	u.hcol = hp[:0]
	u.zpat, u.zval = zpat, zval

	// New diagonal of column t after the row elimination.
	d := 0.0
	if u.aflag[t] == u.amark {
		d = u.acc[t]
	}
	for i, j := range zpat {
		if u.aflag[j] == u.amark {
			d -= zval[i] * u.acc[j]
		}
	}
	if abs(d) < pivTol {
		return ErrNumerical // factorization now invalid; caller refactorizes
	}
	scale := abs(d)
	if a := abs(dAlt); a > scale {
		scale = a
	}
	if abs(d-dAlt) > factorUpdateAccTol*scale {
		return ErrNumerical // elimination lost accuracy; caller refactorizes
	}

	// Install utilde as the new column t. The fresh gen stamp invalidates
	// every row-list entry of the replaced column at once.
	col := &u.cols[t]
	u.nnz -= len(col.ri)
	col.gen++
	ri, rv := col.ri[:0], col.rv[:0]
	for _, r := range upat {
		if r == t32 {
			continue
		}
		v := u.acc[r]
		if abs(v) <= factorDropTol {
			continue
		}
		ri = append(ri, r)
		rv = append(rv, v)
		u.rows[r] = append(u.rows[r], ftRowEntry{col: t32, gen: col.gen, val: v})
	}
	col.ri, col.rv = ri, rv
	u.nnz += len(ri)
	u.diag[t] = d

	if len(zpat) > 0 {
		u.etas = append(u.etas, ftEta{
			t:   t,
			idx: append([]int32(nil), zpat...),
			val: append([]float64(nil), zval...),
		})
	}

	// Rotate column t to the end of the order: an O(1) list splice plus a
	// fresh maximal key.
	if u.otail != t32 {
		p, n := u.oprev[t], u.onext[t]
		if p >= 0 {
			u.onext[p] = n
		} else {
			u.ohead = n
		}
		u.oprev[n] = p
		u.onext[u.otail] = t32
		u.oprev[t] = u.otail
		u.onext[t] = -1
		u.otail = t32
	}
	u.okey[t] = u.nextKey
	u.keyCol = append(u.keyCol, t32)
	u.nextKey++
	if int(u.nextKey) > 64*len(u.bits) {
		u.bits = append(u.bits, 0)
	}

	u.updates++
	return nil
}
