package lp

// DenseFactor factorizes the basis as a dense LU with partial pivoting and
// applies product-form eta updates between refactorizations. It is intended
// for bases up to a few thousand rows.
type DenseFactor struct {
	m    int
	lu   []float64 // m*m, row-major, combined L (unit diag) and U
	luT  []float64 // m*m transpose of lu: Btran's solves read it row-contiguously
	perm []int     // row permutation: P*B = L*U; perm[i] = original row of factor row i
	etas etaFile

	scratch []float64 // per-solve work vector, reused across Ftran/Btran calls

	maxEtas int
	pivTol  float64
}

var _ Factorizer = (*DenseFactor)(nil)

// NewDenseFactor returns a dense factorization backend. maxEtas bounds the
// eta file length before a refactorization is requested (0 means the shared
// default, denseMaxEtas).
func NewDenseFactor(maxEtas int) *DenseFactor {
	if maxEtas <= 0 {
		maxEtas = denseMaxEtas
	}
	return &DenseFactor{maxEtas: maxEtas, pivTol: factorPivTol}
}

// Factor implements Factorizer.
func (d *DenseFactor) Factor(a *CSC, basis []int) error {
	m := len(basis)
	d.m = m
	if cap(d.lu) < m*m {
		d.lu = make([]float64, m*m)
	} else {
		d.lu = d.lu[:m*m]
		for i := range d.lu {
			d.lu[i] = 0
		}
	}
	if cap(d.perm) < m {
		d.perm = make([]int, m)
	} else {
		d.perm = d.perm[:m]
	}
	// Scatter basis columns: lu[r][c] = B[r][c] = a.Col(basis[c])[r].
	for c, j := range basis {
		ri, rv := a.Col(j)
		for k, r := range ri {
			d.lu[r*m+c] = rv[k]
		}
	}
	for i := range d.perm {
		d.perm[i] = i
	}
	// Gaussian elimination with partial pivoting.
	for c := 0; c < m; c++ {
		// Pivot search in column c among rows c..m-1.
		best, bv := -1, d.pivTol
		for r := c; r < m; r++ {
			if v := abs(d.lu[r*m+c]); v > bv {
				best, bv = r, v
			}
		}
		if best < 0 {
			return &singularBasisError{pos: c, row: repairRow(a, basis, nil, d.perm, c)}
		}
		if best != c {
			// Swap rows best and c.
			rb, rc := d.lu[best*m:best*m+m], d.lu[c*m:c*m+m]
			for k := range rb {
				rb[k], rc[k] = rc[k], rb[k]
			}
			d.perm[best], d.perm[c] = d.perm[c], d.perm[best]
		}
		piv := d.lu[c*m+c]
		for r := c + 1; r < m; r++ {
			f := d.lu[r*m+c] / piv
			if f == 0 {
				continue
			}
			d.lu[r*m+c] = f
			row := d.lu[r*m : r*m+m]
			prow := d.lu[c*m : c*m+m]
			for k := c + 1; k < m; k++ {
				row[k] -= f * prow[k]
			}
		}
	}
	// Keep a transposed copy: the lu array is row-major, so Btran's
	// transposed solves would otherwise walk it with stride m — the
	// dominant cost of a dense solve is those cache misses, not flops.
	if cap(d.luT) < m*m {
		d.luT = make([]float64, m*m)
	} else {
		d.luT = d.luT[:m*m]
	}
	for i := 0; i < m; i++ {
		row := d.lu[i*m : i*m+m]
		for k, v := range row {
			d.luT[k*m+i] = v
		}
	}
	d.etas.reset()
	return nil
}

// work returns the reusable length-m scratch vector.
func (d *DenseFactor) work() []float64 {
	if cap(d.scratch) < d.m {
		d.scratch = make([]float64, d.m)
	}
	return d.scratch[:d.m]
}

// Ftran implements Factorizer: solves B*x = b in place with dense
// triangular solves, then scans the result for its nonzero positions.
func (d *DenseFactor) Ftran(b []float64, _, out []int32) []int32 {
	m := d.m
	// Apply permutation: solve P*B = LU, so LU*x = P*b.
	tmp := d.work()
	for i := 0; i < m; i++ {
		tmp[i] = b[d.perm[i]]
	}
	// Forward solve L*y = Pb (unit diagonal).
	for i := 0; i < m; i++ {
		s := tmp[i]
		row := d.lu[i*m : i*m+m]
		for k := 0; k < i; k++ {
			s -= row[k] * tmp[k]
		}
		tmp[i] = s
	}
	// Backward solve U*x = y.
	for i := m - 1; i >= 0; i-- {
		s := tmp[i]
		row := d.lu[i*m : i*m+m]
		for k := i + 1; k < m; k++ {
			s -= row[k] * tmp[k]
		}
		tmp[i] = s / row[i]
	}
	copy(b, tmp)
	d.etas.ftranApply(b)
	return nonzeros(b, out)
}

// Btran implements Factorizer: solves B^T*y = c in place. The transposed
// solves read luT (lu's transpose) so every inner loop streams a
// contiguous row; lu[k*m+i] for running k is luT[i*m+k].
func (d *DenseFactor) Btran(c []float64, _, out []int32) []int32 {
	d.etas.btranApply(c)
	m := d.m
	tmp := d.work()
	copy(tmp, c)
	// Solve (LU)^T z = c: first U^T w = c (forward), then L^T z = w
	// (backward), then y = P^T z.
	//
	// The forward solve preserves a zero prefix: rows before the first
	// nonzero of c stay zero and contribute nothing downstream, so start
	// both loops there. Near-unit right-hand sides (pricing vectors, the
	// devex reference row) skip most of the triangle this way.
	first := 0
	for first < m && tmp[first] == 0 {
		first++
	}
	for i := first; i < m; i++ {
		s := tmp[i]
		row := d.luT[i*m : i*m+m]
		for k := first; k < i; k++ {
			s -= row[k] * tmp[k]
		}
		tmp[i] = s / row[i]
	}
	for i := m - 1; i >= 0; i-- {
		s := tmp[i]
		row := d.luT[i*m : i*m+m]
		for k := i + 1; k < m; k++ {
			s -= row[k] * tmp[k]
		}
		tmp[i] = s
	}
	for i := 0; i < m; i++ {
		c[d.perm[i]] = tmp[i]
	}
	return nonzeros(c, out)
}

// Update implements Factorizer.
func (d *DenseFactor) Update(w []float64, pos int) (bool, error) {
	if err := d.etas.push(w, pos, d.pivTol); err != nil {
		return true, err
	}
	return d.etas.len() >= d.maxEtas, nil
}
