package lp

// sparseLU holds an LU factorization of a square sparse matrix computed with
// the left-looking Gilbert-Peierls algorithm and partial pivoting:
// P*B[:,q] = L*U with unit lower-triangular L (diagonal stored first in each
// column) and upper-triangular U (diagonal stored last in each column).
type sparseLU struct {
	m int

	lp []int // L column pointers
	li []int // L row indices (in pivoted coordinates after finalize)
	lx []float64
	up []int // U column pointers
	ui []int
	ux []float64

	pinv []int // row i of B -> pivot position pinv[i]
	q    []int // column preorder: factor column k is B column q[k]
	qinv []int

	// scratch
	x     []float64
	xi    []int
	stack []int
	pstk  []int
	flags []int32
	mark  int32
}

// luFactor factorizes the m x m matrix whose k-th column is column cols[k]
// of a. Columns are preordered by increasing nonzero count (approximate
// minimum fill for our near-0/1 systems).
//
// With repair set, a column that cannot pivot (linearly dependent on the
// columns already factored) is replaced in place — in cols and in the
// factors — by the slack of an unpivoted row whose slack is not basic, and
// elimination continues. The replacement is exact, not approximate: the
// slack is a unit vector on a row no factored column pivoted, so the
// partial elimination passes it through unchanged and it pivots immediately
// with value 1. Each swap is reported so the caller can move the displaced
// column to a bound; one factorization pass absorbs any number of repairs,
// where the retry-per-repair scheme pays a partial refactorization each.
func luFactor(a *CSC, cols []int, pivTol float64, repair bool) (*sparseLU, []basisSwap, error) {
	m := len(cols)
	f := &sparseLU{
		m:     m,
		lp:    make([]int, m+1),
		up:    make([]int, m+1),
		pinv:  make([]int, m),
		q:     make([]int, m),
		qinv:  make([]int, m),
		x:     make([]float64, m),
		xi:    make([]int, m),
		stack: make([]int, m),
		pstk:  make([]int, m),
		flags: make([]int32, m),
	}
	for i := range f.pinv {
		f.pinv[i] = -1
	}
	// Column preorder: sort positions by column nnz ascending (stable).
	order := make([]int, m)
	for i := range order {
		order[i] = i
	}
	counts := make([]int, m)
	for k, j := range cols {
		counts[k] = a.ColPtr[j+1] - a.ColPtr[j]
	}
	countingSortByKey(order, counts, m+1)
	copy(f.q, order)
	for k, c := range f.q {
		f.qinv[c] = k
	}

	nnzGuess := 4 * a.NNZ() / max(1, a.Cols) * m
	f.li = make([]int, 0, nnzGuess)
	f.lx = make([]float64, 0, nnzGuess)
	f.ui = make([]int, 0, nnzGuess)
	f.ux = make([]float64, 0, nnzGuess)

	// Static row weights for the sparsity tie-break below: how many basis
	// columns touch each row. Rows shared by many columns breed fill when
	// chosen as pivots, so among numerically acceptable candidates the
	// pivot search prefers the lightest row.
	rweight := make([]int32, m)
	for _, j := range cols {
		ri, _ := a.Col(j)
		for _, i := range ri {
			rweight[i]++
		}
	}

	var swaps []basisSwap
	for k := 0; k < m; k++ {
		f.lp[k] = len(f.lx)
		f.up[k] = len(f.ux)
		j := cols[f.q[k]]
		top := f.spSolve(a, j, k)
		// Pivot search: threshold partial pivoting. Any non-pivotal row
		// within luPivThreshold of the largest magnitude is numerically
		// acceptable; among those the sparsest row (fewest basis columns
		// touching it) wins, which keeps L and U far sparser than pure
		// magnitude pivoting at a bounded element-growth cost.
		ipiv, amax := -1, 0.0
		for p := top; p < m; p++ {
			i := f.xi[p]
			if f.pinv[i] < 0 {
				if t := abs(f.x[i]); t > amax {
					amax, ipiv = t, i
				}
			} else {
				f.ui = append(f.ui, f.pinv[i])
				f.ux = append(f.ux, f.x[i])
			}
		}
		if ipiv >= 0 {
			accept := luPivThreshold * amax
			best := rweight[ipiv]
			for p := top; p < m; p++ {
				i := f.xi[p]
				if f.pinv[i] < 0 && rweight[i] < best && abs(f.x[i]) >= accept {
					best, ipiv = rweight[i], i
				}
			}
		}
		if ipiv < 0 || amax <= pivTol {
			r := repairRow(a, cols, f.pinv, nil, 0)
			if !repair || r < 0 {
				return nil, swaps, &singularBasisError{pos: f.q[k], row: r}
			}
			// Swap the slack of unpivoted row r into this basis position:
			// drop the failed column's U entries and scratch values, then
			// emit the slack column. After the partial elimination it is
			// still its single original entry (-1 at row r, an unpivoted
			// row), so it pivots there directly.
			pos := f.q[k]
			swaps = append(swaps, basisSwap{pos: pos, old: cols[pos]})
			slack := a.Cols - m + r
			cols[pos] = slack
			f.ui = f.ui[:f.up[k]]
			f.ux = f.ux[:f.up[k]]
			for p := top; p < m; p++ {
				f.x[f.xi[p]] = 0
			}
			_, sv := a.Col(slack)
			f.ui = append(f.ui, k)
			f.ux = append(f.ux, sv[0])
			f.pinv[r] = k
			f.li = append(f.li, r)
			f.lx = append(f.lx, 1)
			continue
		}
		pivot := f.x[ipiv]
		f.ui = append(f.ui, k)
		f.ux = append(f.ux, pivot)
		f.pinv[ipiv] = k
		f.li = append(f.li, ipiv)
		f.lx = append(f.lx, 1)
		for p := top; p < m; p++ {
			i := f.xi[p]
			if f.pinv[i] < 0 {
				f.li = append(f.li, i)
				f.lx = append(f.lx, f.x[i]/pivot)
			}
			f.x[i] = 0
		}
	}
	f.lp[m] = len(f.lx)
	f.up[m] = len(f.ux)
	// Remap L's row indices into pivoted coordinates.
	for p := range f.li {
		f.li[p] = f.pinv[f.li[p]]
	}
	// The elimination scratch is dead once the factors are final; drop it
	// rather than keep it reachable for the factorization's lifetime.
	f.x, f.xi, f.stack, f.pstk, f.flags = nil, nil, nil, nil, nil
	return f, swaps, nil
}

// spSolve computes x = L\B[:,j] for the partially built L, returning the
// top index of the nonzero pattern stored in xi[top:m] in topological order.
// This is the CSparse cs_spsolve scheme specialized to our layout.
func (f *sparseLU) spSolve(a *CSC, j, k int) int {
	f.mark++
	top := f.m
	ri, _ := a.Col(j)
	for _, i := range ri {
		if f.flags[i] != f.mark {
			top = f.dfs(i, top)
		}
	}
	// Scatter numeric values of b.
	ri, rv := a.Col(j)
	for t, i := range ri {
		f.x[i] = rv[t]
	}
	// Numeric sparse triangular solve in topological order.
	for p := top; p < f.m; p++ {
		i := f.xi[p]
		jcol := f.pinv[i]
		if jcol < 0 || jcol >= k {
			continue
		}
		xi := f.x[i]
		if xi == 0 {
			continue
		}
		// Skip the unit diagonal (first entry of the column).
		for q := f.lp[jcol] + 1; q < f.lp[jcol+1]; q++ {
			f.x[f.liOrig(q)] -= f.lx[q] * xi
		}
	}
	return top
}

// liOrig returns the original row index of L entry q. During factorization
// L's indices are still original row numbers (remapping happens at the end).
func (f *sparseLU) liOrig(q int) int { return f.li[q] }

// dfs performs an iterative depth-first search from row node i over the
// column graph of the partially built L, pushing nodes onto xi in reverse
// topological order.
func (f *sparseLU) dfs(i, top int) int {
	head := 0
	f.stack[0] = i
	for head >= 0 {
		i = f.stack[head]
		jcol := f.pinv[i]
		if f.flags[i] != f.mark {
			f.flags[i] = f.mark
			if jcol < 0 {
				f.pstk[head] = 0
			} else {
				f.pstk[head] = f.lp[jcol] + 1 // skip diagonal
			}
		}
		done := true
		if jcol >= 0 {
			for p := f.pstk[head]; p < f.lp[jcol+1]; p++ {
				i2 := f.li[p]
				if f.flags[i2] == f.mark {
					continue
				}
				f.pstk[head] = p + 1
				head++
				f.stack[head] = i2
				done = false
				break
			}
		}
		if done {
			head--
			top--
			f.xi[top] = i
		}
	}
	return top
}

// lsolve solves L*x = x in place (x in pivoted coordinates).
func (f *sparseLU) lsolve(x []float64) {
	for j := 0; j < f.m; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		for p := f.lp[j] + 1; p < f.lp[j+1]; p++ {
			x[f.li[p]] -= f.lx[p] * xj
		}
	}
}

// ltsolve solves L^T*x = x in place. Rows past the last nonzero input are
// skipped: each depends only on later rows (L^T is upper triangular with
// unit diagonal), all zero there, so those entries stay exactly 0.
func (f *sparseLU) ltsolve(x []float64) {
	j := f.m - 1
	for j >= 0 && x[j] == 0 {
		j--
	}
	for ; j >= 0; j-- {
		s := x[j]
		for p := f.lp[j] + 1; p < f.lp[j+1]; p++ {
			s -= f.lx[p] * x[f.li[p]]
		}
		x[j] = s
	}
}

// repairRow picks the constraint row a singular-basis repair should patch
// with its slack: one no column has pivoted, whose slack is not itself in
// the basis (a basic slack may still pivot its row later in the
// elimination, so handing it out would repair nothing). Unpivoted rows
// come either from a pinv map (pinv[i] < 0, sparse path) or from an
// explicit row list (dense path, rows[from:] of the permutation). Returns
// -1 when every unpivoted row's slack is basic — then the dependency is
// not the column-versus-slack kind and the repair gives up.
func repairRow(a *CSC, cols []int, pinv []int, rows []int, from int) int {
	m := len(cols)
	nStruct := a.Cols - m
	slackBasic := make([]bool, m)
	for _, j := range cols {
		if j >= nStruct {
			slackBasic[j-nStruct] = true
		}
	}
	if pinv != nil {
		for i, p := range pinv {
			if p < 0 && !slackBasic[i] {
				return i
			}
		}
		return -1
	}
	for _, i := range rows[from:] {
		if !slackBasic[i] {
			return i
		}
	}
	return -1
}

// countingSortByKey stably sorts order by key[order-position] with keys in
// [0, maxKey).
func countingSortByKey(order []int, keys []int, maxKey int) {
	buckets := make([]int, maxKey+1)
	for _, o := range order {
		buckets[keys[o]+1]++
	}
	for i := 0; i < maxKey; i++ {
		buckets[i+1] += buckets[i]
	}
	out := make([]int, len(order))
	for _, o := range order {
		out[buckets[keys[o]]] = o
		buckets[keys[o]]++
	}
	copy(order, out)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
